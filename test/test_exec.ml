(* The execution-backend layer (lib/exec):

   - Exec.Clock unit conversions round-trip, and the Mops/s computation
     matches its definition on both clock scales;
   - the domains backend runs every reclamation scheme on real OCaml 5
     domains through the same RUNNER face the trial pipeline uses, with
     post-run invariant checks and a flush-then-count pass over the leak
     ledger;
   - a crashing domain is marked in the group (ESRCH semantics) while its
     survivors finish;
   - the Sim_exec refactor left the deterministic schedule bit-for-bit
     unchanged: full trials through Workload.Schemes reproduce outcomes
     captured on the pre-refactor tree (same ops, virtual time, limbo,
     neutralization and signal counts);
   - a trial's outcome names its scheme as the registry does, and returns
     the operation history it recorded, which passes the WGL check. *)

(* ------------------------------------------------------------------ *)
(* Exec.Clock                                                          *)

let feq = Alcotest.float 1e-9

let test_clock_scales () =
  Alcotest.(check feq) "sim cycles/s" 3.0e9 Exec.Clock.sim.cycles_per_second;
  Alcotest.(check feq) "wall cycles/s" 1.0e9 Exec.Clock.wall.cycles_per_second;
  (* One simulated cycle is 1/3 ns; one wall cycle is exactly 1 ns. *)
  Alcotest.(check feq) "sim 3 cycles = 1 ns" 1.0
    (Exec.Clock.ns_of_cycles Exec.Clock.sim 3);
  Alcotest.(check feq) "wall 1 cycle = 1 ns" 1.0
    (Exec.Clock.ns_of_cycles Exec.Clock.wall 1)

let test_clock_round_trip () =
  List.iter
    (fun clock ->
      List.iter
        (fun s ->
          Alcotest.(check feq)
            (Printf.sprintf "%s: %g s round-trips" clock.Exec.Clock.name s)
            s
            (Exec.Clock.seconds_of_cycles clock
               (Exec.Clock.cycles_of_seconds clock s)))
        [ 0.001; 0.5; 2.0 ])
    [ Exec.Clock.sim; Exec.Clock.wall ]

let test_clock_mops () =
  (* 2M ops in one simulated second (3e9 cycles) is 2 Mops/s; the same op
     count over the same cycle count on the wall clock is 3 seconds'
     worth, so a third of the rate.  This is the constant/comment mismatch
     the old Trial.cycles_per_second invited: the conversion now lives
     with the clock that defines it. *)
  Alcotest.(check feq) "sim" 2.0
    (Exec.Clock.mops Exec.Clock.sim ~ops:2_000_000 ~cycles:3_000_000_000);
  Alcotest.(check feq) "wall" (2.0 /. 3.0)
    (Exec.Clock.mops Exec.Clock.wall ~ops:2_000_000 ~cycles:3_000_000_000);
  Alcotest.(check feq) "zero cycles" 0.0
    (Exec.Clock.mops Exec.Clock.sim ~ops:5 ~cycles:0);
  (* Mops/s round-trips back to the op count on both scales. *)
  List.iter
    (fun clock ->
      let ops = 123_457 and cycles = 987_654_321 in
      let mops = Exec.Clock.mops clock ~ops ~cycles in
      Alcotest.(check feq)
        (clock.Exec.Clock.name ^ ": ops recovered")
        (float_of_int ops)
        (mops *. 1.0e6 *. Exec.Clock.seconds_of_cycles clock cycles))
    [ Exec.Clock.sim; Exec.Clock.wall ]

(* ------------------------------------------------------------------ *)
(* Domains smoke: every scheme on real domains through the RUNNER face *)

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

(* Quiescent shutdown, then flush: every grace period expires, so the
   epoch-based schemes must drain limbo to exactly zero — any remainder is
   a leaked record.  HP frees whatever no hazard slot still covers. *)
let flush_and_count (type rm) (module RM : Reclaim.Intf.RECORD_MANAGER
                               with type t = rm) (rm : rm) group ~strict =
  for _ = 1 to 30 do
    Array.iter
      (fun ctx ->
        RM.leave_qstate rm ctx;
        RM.enter_qstate rm ctx)
      group.Runtime.Group.ctxs
  done;
  RM.flush rm (Runtime.Group.ctx group 0);
  if strict then
    Alcotest.(check int) "limbo drained by flush" 0 (RM.limbo_size rm)
  else begin
    (* HP-style: at most one record per hazard slot may be pinned. *)
    let bound =
      Array.length group.Runtime.Group.ctxs
      * Reclaim.Intf.Params.default.Reclaim.Intf.Params.hp_slots
    in
    Alcotest.(check bool)
      (Printf.sprintf "limbo residue within hazard bound (%d <= %d)"
         (RM.limbo_size rm) bound)
      true
      (RM.limbo_size rm <= bound)
  end

module Domains_smoke (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module Stack = Ds.Treiber_stack.Make (RM)
  module List_s = Ds.Hm_list.Make (RM)

  let exec () = Exec.Domain_exec.make ()

  (* Treiber stack: pushes minus successful pops must equal the final
     size (conservation — no lost or duplicated nodes). *)
  let test_stack ~n ~ops ~seed ~strict () =
    let (module E) = exec () in
    let group = Runtime.Group.create ~seed n in
    let heap = Memory.Heap.create () in
    let rm = RM.create (Reclaim.Intf.Env.create group heap) in
    let s = Stack.create rm ~capacity:((n * ops) + 2) in
    let pushed = Array.make n 0 and popped = Array.make n 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| seed; pid |] in
      for i = 1 to ops do
        if Random.State.bool rng then begin
          Stack.push s ctx ((pid * 1_000_000) + i);
          pushed.(pid) <- pushed.(pid) + 1
        end
        else if Option.is_some (Stack.pop s ctx) then
          popped.(pid) <- popped.(pid) + 1
      done
    in
    let r = E.run group (Array.init n body) in
    Alcotest.(check bool) "wall time advanced" true (r.Exec.Intf.wall_seconds > 0.);
    let total a = Array.fold_left ( + ) 0 a in
    Alcotest.(check int) "nodes conserved"
      (total pushed - total popped)
      (Stack.size s);
    flush_and_count (module RM) rm group ~strict

  (* HM list: structural invariants hold and the net insert/delete balance
     matches the final size. *)
  let test_list ~n ~ops ~range ~seed ~strict () =
    let (module E) = exec () in
    let group = Runtime.Group.create ~seed n in
    let heap = Memory.Heap.create () in
    let rm = RM.create (Reclaim.Intf.Env.create group heap) in
    let l = List_s.create rm ~capacity:(range + (n * ops) + 2) in
    let net = Array.make n 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| seed; pid |] in
      for _ = 1 to ops do
        let key = Random.State.int rng range in
        match Random.State.int rng 3 with
        | 0 ->
            if List_s.insert l ctx ~key ~value:key then
              net.(pid) <- net.(pid) + 1
        | 1 -> if List_s.delete l ctx key then net.(pid) <- net.(pid) - 1
        | _ -> ignore (List_s.contains l ctx key)
      done
    in
    ignore (E.run group (Array.init n body));
    List_s.check_invariants l;
    Alcotest.(check int) "net size" (Array.fold_left ( + ) 0 net)
      (List_s.size l);
    flush_and_count (module RM) rm group ~strict
end

(* The stack and list smoke cases of one scheme, under its Experiment 2
   pairing: [(scheme, seed, (stack domains, list domains, list key range),
   strict)], the list case on [seed + 1]. *)
let smoke_cases (scheme, seed, (n_stack, n_list, range), strict) =
  let module RM =
    (val Reclaim.Registry.rm Exp2 (Reclaim.Registry.find scheme))
  in
  let module D = Domains_smoke (RM) in
  [
    par_case
      (Printf.sprintf "%s stack, %d domains" scheme n_stack)
      `Quick
      (D.test_stack ~n:(clamp n_stack) ~ops:2000 ~seed ~strict);
    par_case
      (Printf.sprintf "%s list, %d domains" scheme n_list)
      `Quick
      (D.test_list ~n:(clamp n_list) ~ops:1500 ~range ~seed:(seed + 1) ~strict);
  ]

(* A domain that dies mid-run is marked crashed in the group while its
   survivors run to completion — the ESRCH wiring Domain_exec promotes
   from the simulator. *)
let test_domain_crash_marked () =
  let (module E) = Exec.Domain_exec.make () in
  let n = 3 in
  let group = Runtime.Group.create ~seed:13 n in
  let finished = Array.make n false in
  let body pid () =
    if pid = 1 then raise Runtime.Ctx.Crashed
    else begin
      (* Outlive the victim so survivors observe the mark mid-run. *)
      Unix.sleepf 0.02;
      finished.(pid) <- Runtime.Group.is_crashed group 1
    end
  in
  ignore (E.run group (Array.init n body));
  Alcotest.(check bool) "victim marked" true (Runtime.Group.is_crashed group 1);
  Alcotest.(check bool) "survivors saw ESRCH" true (finished.(0) && finished.(2));
  Alcotest.(check bool) "survivors alive" true
    (not (Runtime.Group.is_crashed group 0 || Runtime.Group.is_crashed group 2))

(* The backend advertises what it cannot do — the trial pipeline keys its
   graceful degradation off these. *)
let test_backend_contract () =
  let (module D) = Exec.Domain_exec.make () in
  Alcotest.(check bool) "domains non-deterministic" false D.deterministic;
  Alcotest.(check bool) "domains declares limits" true (D.limitations <> []);
  Alcotest.(check string) "domains clock" "wall" D.clock.Exec.Clock.name;
  let (module S) = Exec.Sim_exec.make () in
  Alcotest.(check bool) "sim deterministic" true S.deterministic;
  Alcotest.(check (list string)) "sim unrestricted" [] S.limitations;
  Alcotest.(check string) "sim clock" "sim" S.clock.Exec.Clock.name;
  (match Exec.Backend.of_string "domains" with
  | Ok `Domains -> ()
  | _ -> Alcotest.fail "parse domains");
  (match Exec.Backend.of_string "bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bogus backend")

(* ------------------------------------------------------------------ *)
(* The access fast path                                                 *)

(* An access with no access subscriber and no backend step runs its poll,
   its stats and one branch.  A subscriber added mid-run on a domain sees
   every later access and nothing once removed; the simulator's step holds
   the slow path only for the run, also when the run escapes with [Stuck]
   or rejects its arguments. *)
let test_fast_path () =
  let module Ctx = Runtime.Ctx in
  let group = Runtime.Group.create ~seed:5 2 in
  let ctxs = group.Runtime.Group.ctxs in
  let all_fast () = Array.for_all Ctx.fast_path ctxs in
  Alcotest.(check bool) "fresh contexts fast" true (all_fast ());
  let v = Runtime.Svar.make 0 in
  let touch ctx k =
    for i = 1 to k do
      Runtime.Svar.set ctx v i;
      ignore (Runtime.Svar.get ctx v);
      ignore (Runtime.Svar.cas ctx v ~expect:i (i + 1));
      Ctx.fence ctx;
      Ctx.work ctx 3
    done
  in
  let seen = ref 0 and expected = ref 0 and slow_while_hooked = ref false in
  let fast_after = ref false in
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    touch ctx 10;
    if pid = 0 then begin
      let unhook = Ctx.add_hook ctx (fun _ ~line:_ _ -> incr seen) in
      slow_while_hooked := not (Ctx.fast_path ctx);
      touch ctx 7;
      expected := 7 * 5;
      unhook ();
      fast_after := Ctx.fast_path ctx;
      touch ctx 4
    end
  in
  ignore (Exec.Domain_exec.run group (Array.init 2 body));
  Alcotest.(check bool) "slow while hooked" true !slow_while_hooked;
  Alcotest.(check int) "hook saw every access while subscribed" !expected
    !seen;
  Alcotest.(check bool) "unhooking restores the fast path" true !fast_after;
  let during = Array.make 2 true in
  let sim_body pid () =
    let ctx = Runtime.Group.ctx group pid in
    touch ctx 3;
    during.(pid) <- Ctx.fast_path ctx
  in
  ignore (Sim.run group (Array.init 2 sim_body));
  Alcotest.(check (array bool)) "sim step installed" [| false; false |] during;
  Alcotest.(check bool) "fast after Sim.run" true (all_fast ());
  let spin pid () = touch (Runtime.Group.ctx group pid) 1_000 in
  (match Sim.run ~max_steps:50 group (Array.init 2 spin) with
  | _ -> Alcotest.fail "step budget not exceeded"
  | exception Sim.Stuck _ -> ());
  Alcotest.(check bool) "fast after a Stuck escape" true (all_fast ());
  (match Sim.run ~tick:(0, ignore) group (Array.init 2 spin) with
  | _ -> Alcotest.fail "tick interval 0 accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "fast after a rejected tick" true (all_fast ())

(* ------------------------------------------------------------------ *)
(* Sim equivalence: the refactored pipeline reproduces pre-refactor     *)
(* outcomes exactly                                                     *)

let sim_cfg ~duration ~n ~range ~seed =
  { Workload.Trial.default with duration; n; range; seed }

let golden ~ds ~scheme ~cfg ~ops ~virtual_time ~limbo ?neutralized
    ?signals_sent ?allocs () =
  let r =
    match Workload.Schemes.find_runner ~ds ~variant:"exp2" ~scheme with
    | Some r -> r
    | None -> Alcotest.failf "no runner for %s/%s" ds scheme
  in
  let o = r.Workload.Schemes.run cfg in
  let tag what = Printf.sprintf "%s/%s %s" ds scheme what in
  Alcotest.(check string) (tag "backend") "sim" o.Workload.Trial.backend;
  Alcotest.(check int) (tag "ops") ops o.Workload.Trial.ops;
  Alcotest.(check int) (tag "virtual_time") virtual_time
    o.Workload.Trial.virtual_time;
  Alcotest.(check int) (tag "limbo") limbo o.Workload.Trial.limbo;
  Option.iter
    (fun v ->
      Alcotest.(check int) (tag "neutralized") v o.Workload.Trial.neutralized)
    neutralized;
  Option.iter
    (fun v ->
      Alcotest.(check int) (tag "signals_sent") v
        o.Workload.Trial.signals_sent)
    signals_sent;
  Option.iter
    (fun v -> Alcotest.(check int) (tag "allocs") v o.Workload.Trial.allocs)
    allocs

(* The expected values were captured by running these exact configurations
   on the pre-refactor tree (direct Sim.run inside Trial); the two BST ones
   were re-captured when insertion started copying the displaced leaf, as
   EFRB does.  If any drifts, something changed the deterministic
   schedule. *)
let test_sim_golden_debra_plus () =
  golden ~ds:"bst" ~scheme:"debra+"
    ~cfg:(sim_cfg ~duration:300_000 ~n:4 ~range:2_000 ~seed:11)
    ~ops:1415 ~virtual_time:300_899 ~limbo:2358 ~neutralized:3
    ~signals_sent:3 ~allocs:1596 ()

let test_sim_golden_hp () =
  golden ~ds:"bst" ~scheme:"hp"
    ~cfg:(sim_cfg ~duration:300_000 ~n:4 ~range:2_000 ~seed:11)
    ~ops:721 ~virtual_time:300_724 ~limbo:138 ~neutralized:0 ~signals_sent:0
    ~allocs:271 ()

let test_sim_golden_debra_list () =
  golden ~ds:"list" ~scheme:"debra"
    ~cfg:(sim_cfg ~duration:200_000 ~n:3 ~range:200 ~seed:5)
    ~ops:894 ~virtual_time:200_307 ~limbo:224 ()

(* Same cfg twice through the executor: outcomes identical field-for-field
   where determinism promises it. *)
let test_sim_repeatable () =
  let run () =
    let r =
      Option.get
        (Workload.Schemes.find_runner ~ds:"bst" ~variant:"exp2"
           ~scheme:"debra")
    in
    r.Workload.Schemes.run (sim_cfg ~duration:250_000 ~n:4 ~range:512 ~seed:3)
  in
  let a = run () and b = run () in
  let open Workload.Trial in
  Alcotest.(check int) "ops" a.ops b.ops;
  Alcotest.(check int) "virtual_time" a.virtual_time b.virtual_time;
  Alcotest.(check int) "limbo" a.limbo b.limbo;
  Alcotest.(check int) "allocs" a.allocs b.allocs;
  Alcotest.(check int) "frees" a.frees b.frees;
  Alcotest.(check int) "bytes_claimed" a.bytes_claimed b.bytes_claimed

(* ------------------------------------------------------------------ *)
(* What a trial returns                                                 *)

(* The outcome names the scheme by its registry name, so figure rows join
   with every other artefact; the pool/allocator pairing is its own
   field. *)
let test_outcome_names () =
  let r = Workload.Schemes.runner ~ds:"bst" "debra" in
  let o = r.Workload.Schemes.run (sim_cfg ~duration:50_000 ~n:2 ~range:64 ~seed:1) in
  Alcotest.(check bool)
    (Printf.sprintf "%S is a registry name" o.Workload.Trial.scheme)
    true
    (List.mem o.Workload.Trial.scheme Reclaim.Registry.names);
  Alcotest.(check string) "scheme" "debra" o.Workload.Trial.scheme;
  Alcotest.(check string) "pairing" "pool,bump" o.Workload.Trial.pairing

(* A timed trial with [history] on returns what it recorded: every
   measured operation (and the prefill) completed in the history, which
   the WGL checker accepts. *)
let test_trial_history () =
  let r = Workload.Schemes.runner ~ds:"list" "debra" in
  let o =
    r.Workload.Schemes.run
      {
        (sim_cfg ~duration:4_000 ~n:2 ~range:4 ~seed:7) with
        Workload.Trial.history = true;
      }
  in
  let h =
    match o.Workload.Trial.history with
    | Some h -> h
    | None -> Alcotest.fail "history requested but not returned"
  in
  let completed =
    Array.fold_left
      (fun acc e -> if Lincheck.History.is_pending e then acc else acc + 1)
      0 h
  in
  Alcotest.(check bool) "trial ran" true (o.Workload.Trial.ops > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%d completed operations >= %d ops" completed
       o.Workload.Trial.ops)
    true
    (completed >= o.Workload.Trial.ops);
  Alcotest.(check bool) "linearizable" true
    (Lincheck.Checker.linearizable Lincheck.Spec.set h);
  let plain = r.Workload.Schemes.run (sim_cfg ~duration:4_000 ~n:2 ~range:4 ~seed:7) in
  Alcotest.(check bool) "no history unless asked" true
    (plain.Workload.Trial.history = None)

let () =
  Alcotest.run "exec"
    [
      ( "clock",
        [
          Alcotest.test_case "scales" `Quick test_clock_scales;
          Alcotest.test_case "round trip" `Quick test_clock_round_trip;
          Alcotest.test_case "mops" `Quick test_clock_mops;
        ] );
      ( "domains-smoke",
        List.concat_map smoke_cases
          [
            ("debra", 21, (4, 3, 64), true);
            ("debra+", 23, (3, 4, 32), true);
            ("hp", 25, (4, 2, 64), false);
            ("vbr", 27, (4, 3, 64), true);
            ("hyaline", 29, (3, 4, 32), true);
          ] );
      ( "runner",
        [
          Alcotest.test_case "crash marked in group" `Quick
            test_domain_crash_marked;
          Alcotest.test_case "backend contracts" `Quick test_backend_contract;
          Alcotest.test_case "access fast path" `Quick test_fast_path;
        ] );
      ( "sim-equivalence",
        [
          Alcotest.test_case "bst debra+ golden" `Quick
            test_sim_golden_debra_plus;
          Alcotest.test_case "bst hp golden" `Quick test_sim_golden_hp;
          Alcotest.test_case "list debra golden" `Quick
            test_sim_golden_debra_list;
          Alcotest.test_case "repeatable" `Quick test_sim_repeatable;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "registry name and pairing" `Quick
            test_outcome_names;
          Alcotest.test_case "recorded history" `Quick test_trial_history;
        ] );
    ]
