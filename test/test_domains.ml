(* Real-parallelism smoke tests: the same data structures and reclaimers
   run on OCaml domains (no simulator, hooks disabled, true preemption).
   On a single hardware core the domains timeslice, which still exercises
   atomicity and publication; on multicore machines this runs genuinely in
   parallel. *)

(* Small hosts: clamp domain counts to the runtime's recommendation, and
   skip (with a printed reason) the tests whose point is real parallelism
   when even two domains are not recommended. *)
let avail = Domain.recommended_domain_count ()
let clamp n = min n (max 1 avail)

let par_case name speed f =
  Alcotest.test_case name speed (fun () ->
      if avail < 2 then begin
        Printf.printf
          "SKIP %s: Domain.recommended_domain_count () = %d (< 2), no real \
           parallelism on this host\n%!"
          name avail;
        Alcotest.skip ()
      end
      else f ())

module RM_debra = (val Reclaim.Registry.(rm Exp2 (find "debra")))
module RM_hp = (val Reclaim.Registry.(rm Exp2 (find "hp")))

module H (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module L = Ds.Hm_list.Make (RM)

  let test_list ~n ~ops ~range ~seed () =
    let group = Runtime.Group.create ~seed n in
    let heap = Memory.Heap.create () in
    let env = Reclaim.Intf.Env.create group heap in
    let rm = RM.create env in
    let t = L.create rm ~capacity:(range + (n * ops) + 2) in
    let net = Array.make n 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| seed; pid |] in
      for _ = 1 to ops do
        let key = Random.State.int rng range in
        match Random.State.int rng 3 with
        | 0 -> if L.insert t ctx ~key ~value:key then net.(pid) <- net.(pid) + 1
        | 1 -> if L.delete t ctx key then net.(pid) <- net.(pid) - 1
        | _ -> ignore (L.contains t ctx key)
      done
    in
    let _elapsed, outcomes = Runtime.Domain_runner.run group (Array.init n body) in
    Array.iter
      (function
        | Runtime.Domain_runner.Finished -> ()
        | Crashed _ -> Alcotest.fail "unexpected crash")
      outcomes;
    L.check_invariants t;
    Alcotest.(check int) "net size" (Array.fold_left ( + ) 0 net) (L.size t)

  module Q = Ds.Ms_queue.Make (RM)

  let test_queue ~n ~ops ~seed () =
    let group = Runtime.Group.create ~seed n in
    let heap = Memory.Heap.create () in
    let env = Reclaim.Intf.Env.create group heap in
    let rm = RM.create env in
    let q = Q.create rm ~capacity:((n * ops) + 2) in
    let enq = Array.make n 0 and deq = Array.make n 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| seed; pid |] in
      for i = 1 to ops do
        if Random.State.bool rng then begin
          Q.enqueue q ctx i;
          enq.(pid) <- enq.(pid) + 1
        end
        else if Option.is_some (Q.dequeue q ctx) then deq.(pid) <- deq.(pid) + 1
      done
    in
    ignore (Runtime.Domain_runner.run group (Array.init n body));
    let total a = Array.fold_left ( + ) 0 a in
    Alcotest.(check int) "conserved" (total enq) (total deq + Q.size q)
end

module RM_dplus = (val Reclaim.Registry.(rm Exp2 (find "debra+")))

module H_debra = H (RM_debra)
module H_hp = H (RM_hp)
module H_dplus = H (RM_dplus)

(* On domains a signal is a flag its target reads at its next
   instrumented access, and a target past that poll may be preempted
   before its memory operation for as long as the OS likes.  So DEBRA+
   may count a signalled peer as neutralized only once the peer's
   announcement acknowledges it.  Here the peer leaves its quiescent
   state and then makes no instrumented access until it is released:
   however many operations the other process completes meanwhile, the
   epoch may move at most one step past the peer.  Once released, the
   peer takes the pending signal and the epoch moves on. *)
let test_dplus_pinned_until_ack () =
  let module L = Ds.Hm_list.Make (RM_dplus) in
  let group = Runtime.Group.create ~seed:6 2 in
  let rm = RM_dplus.create (Reclaim.Intf.Env.create group (Memory.Heap.create ())) in
  let ops = 4000 in
  let t = L.create rm ~capacity:((2 * ops) + 16) in
  let held = Atomic.make false and released = Atomic.make false in
  let done_ = Atomic.make false in
  let max_lag = ref 0 and limbo_held = ref 0 and limbo_after = ref 0 in
  let neutralized = ref false in
  let churn ctx =
    for i = 1 to ops do
      ignore (L.insert t ctx ~key:(i mod 8) ~value:i);
      ignore (L.delete t ctx (i mod 8));
      max_lag := max !max_lag (RM_dplus.epoch_lag rm).(1)
    done
  in
  let sender () =
    let ctx = Runtime.Group.ctx group 0 in
    while not (Atomic.get held) do Domain.cpu_relax () done;
    churn ctx;
    limbo_held := RM_dplus.limbo_size rm;
    Atomic.set released true;
    while not (Atomic.get done_) do Domain.cpu_relax () done;
    churn ctx;
    limbo_after := RM_dplus.limbo_size rm
  in
  let peer () =
    let ctx = Runtime.Group.ctx group 1 in
    RM_dplus.leave_qstate rm ctx;
    Atomic.set held true;
    while not (Atomic.get released) do Domain.cpu_relax () done;
    (match Runtime.Ctx.work ctx 1 with
    | () -> RM_dplus.enter_qstate rm ctx
    | exception Runtime.Ctx.Neutralized -> neutralized := true);
    Atomic.set done_ true
  in
  ignore (Runtime.Domain_runner.run group [| sender; peer |]);
  Alcotest.(check bool)
    (Printf.sprintf "epoch at most one step past the held peer (saw %d)"
       !max_lag)
    true (!max_lag <= 1);
  Alcotest.(check bool) "the held peer was signalled" true !neutralized;
  Alcotest.(check bool)
    (Printf.sprintf "limbo drains once the peer acknowledges (%d -> %d)"
       !limbo_held !limbo_after)
    true
    (!limbo_after < !limbo_held)

(* A stalled domain wakes to take a pending signal, as a POSIX signal
   interrupts [nanosleep]: with acknowledgement-based neutralization a
   sleeper that slept its stall out would pin the epoch for all of it. *)
let test_dplus_stall_wakes () =
  let module L = Ds.Hm_list.Make (RM_dplus) in
  let group = Runtime.Group.create ~seed:7 2 in
  let rm = RM_dplus.create (Reclaim.Intf.Env.create group (Memory.Heap.create ())) in
  let t = L.create rm ~capacity:200_016 in
  let held = Atomic.make false and woke = Atomic.make false in
  let neutralized = ref false and slept = ref 0. in
  let sender () =
    let ctx = Runtime.Group.ctx group 0 in
    while not (Atomic.get held) do Domain.cpu_relax () done;
    let i = ref 0 in
    while (not (Atomic.get woke)) && !i < 100_000 do
      incr i;
      ignore (L.insert t ctx ~key:(!i mod 8) ~value:!i);
      ignore (L.delete t ctx (!i mod 8))
    done
  in
  let peer () =
    let ctx = Runtime.Group.ctx group 1 in
    RM_dplus.leave_qstate rm ctx;
    Atomic.set held true;
    let t0 = Unix.gettimeofday () in
    (match Runtime.Ctx.stall ctx 20_000_000_000 (* 20 s *) with
    | () -> RM_dplus.enter_qstate rm ctx
    | exception Runtime.Ctx.Neutralized -> neutralized := true);
    slept := Unix.gettimeofday () -. t0;
    Atomic.set woke true
  in
  ignore (Runtime.Domain_runner.run group [| sender; peer |]);
  Alcotest.(check bool) "the stalled peer was neutralized" true !neutralized;
  Alcotest.(check bool)
    (Printf.sprintf "it woke early (slept %.2f s of 20)" !slept)
    true (!slept < 10.)

(* The arena's lock-free free list under real contention: domains hammer
   claim/release cycles; the live count and the no-double-free guarantee
   must survive. *)
let test_arena_freelist_parallel () =
  let n = clamp 4 in
  let arena =
    Memory.Arena.create ~heap_id:0 ~name:"par" ~mut_fields:1 ~const_fields:0
      ~capacity:4096 ()
  in
  let group = Runtime.Group.create ~seed:9 n in
  (* Alcotest is not domain-safe: workers count mismatches, the main domain
     checks the count after the join. *)
  let corrupted = Atomic.make 0 in
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    let rng = Random.State.make [| pid; 77 |] in
    let held = ref [] in
    for _ = 1 to 3000 do
      if Random.State.bool rng || !held = [] then begin
        let p =
          match Memory.Arena.claim_recycled ctx arena with
          | Some p -> p
          | None -> Memory.Arena.claim_fresh ctx arena
        in
        Memory.Arena.write ctx arena p 0 pid;
        held := p :: !held
      end
      else
        match !held with
        | p :: rest ->
            (* our own records: field must still hold our pid *)
            if Memory.Arena.read ctx arena p 0 <> pid then
              Atomic.incr corrupted;
            Memory.Arena.release ctx arena p ~recycle:true;
            held := rest
        | [] -> ()
    done;
    List.iter (fun p -> Memory.Arena.release ctx arena p ~recycle:true) !held
  in
  ignore (Runtime.Domain_runner.run group (Array.init n body));
  Alcotest.(check int) "no cross-corruption" 0 (Atomic.get corrupted);
  Alcotest.(check int) "all released" 0 (Memory.Arena.live_records arena);
  Alcotest.(check int) "allocs = frees" (Memory.Arena.total_allocs arena)
    (Memory.Arena.total_frees arena)

(* The lock-free shared bag under real contention: blocks are conserved
   and never duplicated across concurrent push/pop traffic. *)
let test_shared_bag_parallel () =
  let n = clamp 4 in
  let per_proc = 500 in
  let bag = Bag.Shared_bag.create () in
  let group = Runtime.Group.create ~seed:3 n in
  let popped = Array.make n 0 in
  let torn = Atomic.make 0 in
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    let rng = Random.State.make [| pid; 31 |] in
    for i = 1 to per_proc do
      let b = Bag.Block.create 4 in
      for _ = 1 to 4 do
        Bag.Block.push b ((pid * 1_000_000) + i)
      done;
      Bag.Shared_bag.push ctx bag b;
      if Random.State.bool rng then
        match Bag.Shared_bag.pop ctx bag with
        | Some b' ->
            if b'.Bag.Block.count <> 4 then Atomic.incr torn;
            popped.(pid) <- popped.(pid) + 1
        | None -> ()
    done
  in
  ignore (Runtime.Domain_runner.run group (Array.init n body));
  Alcotest.(check int) "block intact" 0 (Atomic.get torn);
  let total_popped = Array.fold_left ( + ) 0 popped in
  Alcotest.(check int) "blocks conserved"
    ((n * per_proc) - total_popped)
    (Bag.Shared_bag.size_in_blocks bag)

(* Real cache-line padding: [~padded:true] must allocate each cell as an
   oversized heap block — so neighbouring announcement/epoch slots share no
   hardware line when trials run on this backend — without changing atomic
   behavior.  [Obj.reachable_words] counts headers, so n padded cells cost
   at least n * (pad_words - 1) words more than n plain [Atomic.make]. *)
let test_padding_is_real () =
  let n = 64 in
  let words a = Obj.reachable_words (Obj.repr a) in
  let padded = Runtime.Shared_array.create ~padded:true n in
  let unpadded = Runtime.Shared_array.create n in
  Alcotest.(check bool) "padded cells are oversized blocks" true
    (words padded - words unpadded >= n * 14);
  let ctx = Runtime.Ctx.make ~pid:0 ~nprocs:1 ~seed:7 in
  Runtime.Shared_array.set ctx padded 3 41;
  Alcotest.(check int) "set/get" 41 (Runtime.Shared_array.get ctx padded 3);
  Alcotest.(check int) "faa returns old" 41
    (Runtime.Shared_array.faa ctx padded 3 1);
  Alcotest.(check bool) "cas succeeds" true
    (Runtime.Shared_array.cas ctx padded 3 ~expect:42 43);
  Alcotest.(check bool) "cas fails on mismatch" false
    (Runtime.Shared_array.cas ctx padded 3 ~expect:42 44);
  Alcotest.(check int) "final value" 43 (Runtime.Shared_array.peek padded 3);
  Alcotest.(check int) "neighbours untouched" 0
    (Runtime.Shared_array.get ctx padded 2);
  Alcotest.(check int) "neighbours untouched" 0
    (Runtime.Shared_array.get ctx padded 4)

(* Per-process rows ([Shared_array.rows]) pad on the host only: every
   cell is an oversized block, so no two processes' rows share a hardware
   line, while the simulated layout stays packed — cell i of a row sits on
   the row's first line plus i / 8, each row starting on a fresh line,
   exactly as n rows of [create k] are laid out. *)
let test_rows_padded_on_host_packed_in_sim () =
  let n = 3 and k = 12 in
  let words a = Obj.reachable_words (Obj.repr a) in
  let rows = Runtime.Shared_array.rows n k in
  let packed = Array.init n (fun _ -> Runtime.Shared_array.create k) in
  Alcotest.(check bool) "row cells are oversized blocks" true
    (words rows - words packed >= n * k * 14);
  let ctx = Runtime.Ctx.make ~pid:0 ~nprocs:1 ~seed:7 in
  let last = ref (-1) in
  let unhook = Runtime.Ctx.add_hook ctx (fun _ ~line _ -> last := line) in
  let line_of r i =
    ignore (Runtime.Shared_array.get ctx r i);
    !last
  in
  let wpl = Runtime.Addr.words_per_line in
  let lines_per_row = (k + wpl - 1) / wpl in
  Array.iteri
    (fun pid r ->
      let first = line_of r 0 in
      Alcotest.(check int) (Printf.sprintf "row %d starts a fresh line" pid)
        (line_of rows.(0) 0 + (pid * lines_per_row))
        first;
      for i = 0 to k - 1 do
        Alcotest.(check int)
          (Printf.sprintf "row %d cell %d: packed line" pid i)
          (first + (i / wpl))
          (line_of r i)
      done)
    rows;
  unhook ();
  Runtime.Shared_array.set ctx rows.(1) 5 9;
  Alcotest.(check bool) "cas on a row cell" true
    (Runtime.Shared_array.cas ctx rows.(1) 5 ~expect:9 10);
  Alcotest.(check int) "rows are independent" 0
    (Runtime.Shared_array.peek rows.(0) 5)

let () =
  Alcotest.run "domains"
    [
      ( "list",
        [
          par_case "debra 4 domains" `Quick
            (H_debra.test_list ~n:(clamp 4) ~ops:2000 ~range:64 ~seed:1);
          par_case "hp 4 domains" `Quick
            (H_hp.test_list ~n:(clamp 4) ~ops:2000 ~range:64 ~seed:2);
        ] );
      ( "queue",
        [
          par_case "debra 4 domains" `Quick
            (H_debra.test_queue ~n:(clamp 4) ~ops:2000 ~seed:3);
        ] );
      ( "debra+",
        [
          par_case "list under real domains" `Quick
            (H_dplus.test_list ~n:(clamp 4) ~ops:1500 ~range:32 ~seed:4);
          par_case "peer pinned until it acknowledges" `Quick
            test_dplus_pinned_until_ack;
          par_case "stalled peer wakes for its signal" `Quick
            test_dplus_stall_wakes;
        ] );
      ( "arena",
        [
          par_case "parallel freelist" `Quick
            test_arena_freelist_parallel;
        ] );
      ( "shared-bag",
        [
          par_case "parallel block transfer" `Quick
            test_shared_bag_parallel;
        ] );
      ( "padding",
        [
          (* no parallelism needed: checks the allocation shape itself *)
          Alcotest.test_case "padded cells get real hardware lines" `Quick
            test_padding_is_real;
          Alcotest.test_case "rows: padded on the host, packed in sim" `Quick
            test_rows_padded_on_host_packed_in_sim;
        ] );
    ]
