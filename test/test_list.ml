(* Concurrent correctness of the Harris-Michael list under every reclamation
   scheme, executed on the deterministic simulator.  The final set size must
   equal the net number of successful inserts minus deletes, the list must
   stay sorted and cycle-free, and no access may ever hit a freed record
   (the arena would raise Use_after_free). *)

let block_32 =
  { Reclaim.Intf.Params.default with Reclaim.Intf.Params.block_capacity = 32 }

module Harness (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module L = Ds.Hm_list.Make (RM)

  let setup ~n ~seed ~params =
    let group = Runtime.Group.create ~seed n in
    let heap = Memory.Heap.create () in
    let env = Reclaim.Intf.Env.create ~params group heap in
    let rm = RM.create env in
    (group, heap, rm)

  (* Each process performs [ops] random operations; the final size must be
     the net number of successful updates. *)
  let run_random ?(machine = Machine.Config.tiny ~contexts:4 ())
      ?(params = block_32) ~n ~ops ~range ~seed () =
    let group, heap, rm = setup ~n ~seed ~params in
    let t = L.create rm ~capacity:(range + (n * ops) + 2) in
    let net = Array.make n 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| seed; pid; 7 |] in
      for _ = 1 to ops do
        let key = Random.State.int rng range in
        match Random.State.int rng 3 with
        | 0 ->
            if L.insert t ctx ~key ~value:(key * 2) then
              net.(pid) <- net.(pid) + 1
        | 1 -> if L.delete t ctx key then net.(pid) <- net.(pid) - 1
        | _ -> ignore (L.contains t ctx key)
      done
    in
    let _res = Sim.run ~machine group (Array.init n body) in
    L.check_invariants t;
    let expect = Array.fold_left ( + ) 0 net in
    (expect, L.size t, heap, rm, t)

  let test_random ~n ~ops ~range ~seed () =
    let expect, got, _, _, _ = run_random ~n ~ops ~range ~seed () in
    Alcotest.(check int) "net size" expect got

  let test_get () =
    let group, _heap, rm = setup ~n:2 ~seed:5 ~params:block_32 in
    let t = L.create rm ~capacity:4096 in
    let ctx = Runtime.Group.ctx group 0 in
    Alcotest.(check bool) "insert" true (L.insert t ctx ~key:7 ~value:49);
    Alcotest.(check bool) "no dup" false (L.insert t ctx ~key:7 ~value:50);
    Alcotest.(check (option int)) "get" (Some 49) (L.get t ctx 7);
    Alcotest.(check bool) "delete" true (L.delete t ctx 7);
    Alcotest.(check bool) "no double delete" false (L.delete t ctx 7);
    Alcotest.(check (option int)) "gone" None (L.get t ctx 7)

  (* Fault injection: pid 0 crashes while non-quiescent; the others keep
     operating.  Returns the limbo population at the end. *)
  let crash_limbo ~ops () =
    let n = 4 in
    let params = { block_32 with Reclaim.Intf.Params.incr_thresh = 1 } in
    let group, _heap, rm = setup ~n ~seed:11 ~params in
    let t = L.create rm ~capacity:(64 + (n * ops) + 2) in
    let ctx0 = Runtime.Group.ctx group 0 in
    for key = 0 to 31 do
      ignore (L.insert t ctx0 ~key ~value:key)
    done;
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      if pid = 0 then begin
        (* Enter an operation and crash inside it, leaving a non-quiescent
           announcement behind. *)
        RM.leave_qstate rm ctx;
        ignore (Memory.Arena.read ctx (L.arena t) t.L.head 0);
        Runtime.Ctx.crash ctx
      end
      else
        let rng = Random.State.make [| 13; pid |] in
        for _ = 1 to ops do
          let key = Random.State.int rng 32 in
          if Random.State.bool rng then ignore (L.insert t ctx ~key ~value:key)
          else ignore (L.delete t ctx key)
        done
    in
    let res =
      Sim.run
        ~machine:(Machine.Config.tiny ~contexts:4 ())
        group (Array.init n body)
    in
    Alcotest.(check bool) "pid 0 crashed" true res.Sim.crashed.(0);
    L.check_invariants t;
    RM.limbo_size rm

  let cases name =
    [
      Alcotest.test_case (name ^ " get/insert/delete") `Quick test_get;
      Alcotest.test_case (name ^ " 2p small") `Quick
        (test_random ~n:2 ~ops:400 ~range:16 ~seed:1);
      Alcotest.test_case (name ^ " 4p contended") `Quick
        (test_random ~n:4 ~ops:500 ~range:8 ~seed:2);
      Alcotest.test_case (name ^ " 4p wide") `Quick
        (test_random ~n:4 ~ops:400 ~range:256 ~seed:3);
      Alcotest.test_case (name ^ " 6p oversubscribed") `Quick
        (test_random ~n:6 ~ops:300 ~range:32 ~seed:4);
    ]
end

module Registry = Reclaim.Registry

(* Each scheme under its Experiment 2 pairing (Exp3 for the malloc case). *)
let rm ?(variant = Registry.Exp2) scheme =
  Registry.rm variant (Registry.find scheme)

let cases ?variant ?(label = "") scheme =
  let module RM = (val rm ?variant scheme) in
  let module H = Harness (RM) in
  H.cases (if label = "" then scheme else label)

let crash_limbo scheme =
  let module RM = (val rm scheme) in
  let module H = Harness (RM) in
  H.crash_limbo ~ops:3000 ()

let test_crash_debra_grows () =
  let limbo = crash_limbo "debra" in
  Alcotest.(check bool)
    (Printf.sprintf "debra limbo grows unboundedly (got %d)" limbo)
    true (limbo > 1500)

let test_crash_debra_plus_bounded () =
  let limbo = crash_limbo "debra+" in
  Alcotest.(check bool)
    (Printf.sprintf "debra+ limbo bounded (got %d)" limbo)
    true (limbo < 1500)

(* HP's footprint is Θ(nk): under the Experiment 2 pairing (bump allocator
   behind the shared pool, the paper's default parameters), every process'
   limbo stays within the scan threshold max(f·n·k, min(2B, n·k)) at every
   operation boundary, and once the set size is steady, freed records are
   reused rather than claimed fresh — ten times the operations claim
   (almost) no more records than one.  Each process updates its own keys
   (the list is still shared by every traversal), so its pool bag gets
   back what it allocates: the shared pool's cross-process drift, a random
   walk that only spills to the shared bag past [pool_cap_blocks] full
   blocks, stays out of the claim count. *)
let hp_footprint ~ops =
  let module RM = (val rm "hp") in
  let module H = Harness (RM) in
  let n = 2 and range = 64 and seed = 21 in
  let params = Reclaim.Intf.Params.default in
  let group, heap, rm = H.setup ~n ~seed ~params in
  let t = H.L.create rm ~capacity:(range + (n * ops) + 2) in
  let worst = ref 0 in
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    let rng = Random.State.make [| seed; pid |] in
    for _ = 1 to ops do
      let key = (n * Random.State.int rng (range / n)) + pid in
      (if Random.State.bool rng then
         ignore (H.L.insert t ctx ~key ~value:key)
       else ignore (H.L.delete t ctx key));
      Array.iter (fun l -> worst := max !worst l) (RM.limbo_per_proc rm)
    done
  in
  let machine = Machine.Config.tiny ~contexts:4 () in
  ignore (Sim.run ~machine group (Array.init n body));
  H.L.check_invariants t;
  let claims =
    List.fold_left
      (fun acc a -> acc + Memory.Arena.fresh_claims a)
      0 (Memory.Heap.arenas heap)
  in
  let k = params.Reclaim.Intf.Params.hp_slots in
  let threshold =
    max
      (params.Reclaim.Intf.Params.hp_retire_factor * n * k)
      (min (2 * params.Reclaim.Intf.Params.block_capacity) (n * k))
  in
  (!worst, threshold, claims, n * k)

let test_hp_footprint () =
  let worst1, threshold, claims1, nk = hp_footprint ~ops:600 in
  let worst10, _, claims10, _ = hp_footprint ~ops:6000 in
  List.iter
    (fun (label, worst) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: per-process limbo %d <= threshold %d" label worst
           threshold)
        true (worst <= threshold))
    [ ("1x", worst1); ("10x", worst10) ];
  Alcotest.(check bool)
    (Printf.sprintf "fresh claims steady: %d at 1x, %d at 10x (slack nk = %d)"
       claims1 claims10 nk)
    true
    (claims10 <= claims1 + nk)

let () =
  Alcotest.run "hm_list"
    (List.map
       (fun s -> (s, cases s))
       [ "none"; "ebr"; "debra"; "debra+"; "hp" ]
    @ [
        ("malloc+debra", cases ~variant:Exp3 ~label:"malloc" "debra");
        ("qsbr", cases "qsbr");
        ("rc", cases "rc");
        ( "fault-tolerance",
          [
            Alcotest.test_case "crashed process blocks DEBRA" `Quick
              test_crash_debra_grows;
            Alcotest.test_case "DEBRA+ stays bounded across crash" `Quick
              test_crash_debra_plus_bounded;
          ] );
        ( "footprint",
          [
            Alcotest.test_case "hp limbo and claims bounded at 1x and 10x"
              `Quick test_hp_footprint;
          ] );
      ])
