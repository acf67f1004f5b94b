(* Neutralization under fire: a process that repeatedly stalls mid-operation
   gets signalled by peers whose limbo bags grow.  The run must (a) actually
   neutralize (the recovery paths in the BST/list are exercised, not just
   compiled), (b) keep the structure linearizable (net-size accounting), and
   (c) keep reclaiming (limbo bounded).

   Also sweeps many seeds at small scale: each seed is a different
   deterministic interleaving of the same contended workload. *)

module RM_dplus = (val Reclaim.Registry.(rm Exp2 (find "debra+")))

module T = Ds.Efrb_bst.Make (RM_dplus)
module L = Ds.Hm_list.Make (RM_dplus)

let params =
  {
    Reclaim.Intf.Params.default with
    Reclaim.Intf.Params.block_capacity = 16;
    incr_thresh = 1;
    suspect_blocks = 1;
  }

let setup ~n ~seed =
  let group = Runtime.Group.create ~seed n in
  let heap = Memory.Heap.create () in
  let env = Reclaim.Intf.Env.create ~params group heap in
  let rm = RM_dplus.create env in
  (group, rm)

(* One process stalls 2000 cycles between every operation pair while staying
   non-quiescent mid-operation often enough to draw signals. *)
let test_bst_neutralized_under_stalls () =
  let n = 4 in
  let ops = 600 in
  let group, rm = setup ~n ~seed:31 in
  let t = T.create rm ~capacity:(8 * n * ops) in
  let net = Array.make n 0 in
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    let rng = Random.State.make [| 17; pid |] in
    for i = 1 to ops do
      let key = 1 + Random.State.int rng 32 in
      (if Random.State.bool rng then (
         if T.insert t ctx ~key ~value:key then net.(pid) <- net.(pid) + 1)
       else if T.delete t ctx key then net.(pid) <- net.(pid) - 1);
      (* The laggard dawdles mid-stream: it leaves an operation open by
         stalling inside the next one's search. *)
      if pid = 0 && i mod 5 = 0 then begin
        RM_dplus.leave_qstate rm ctx;
        ignore (Memory.Arena.read ctx t.T.internal t.T.root 0);
        Runtime.Ctx.stall ctx 50_000;
        (* Either it was neutralized while asleep (the next access runs the
           handler) or it finishes the op normally. *)
        (try ignore (Memory.Arena.read ctx t.T.internal t.T.root 0)
         with Runtime.Ctx.Neutralized -> ());
        RM_dplus.enter_qstate rm ctx
      end
    done
  in
  ignore
    (Sim.run ~machine:(Machine.Config.tiny ~contexts:2 ()) group
       (Array.init n body));
  T.check_invariants t;
  Alcotest.(check int) "net size" (Array.fold_left ( + ) 0 net) (T.size t);
  let neutralized =
    Runtime.Group.sum_stats group (fun s -> s.Runtime.Ctx.neutralized)
  in
  Alcotest.(check bool)
    (Printf.sprintf "neutralizations happened (%d)" neutralized)
    true (neutralized > 0);
  Alcotest.(check bool)
    (Printf.sprintf "limbo bounded (%d)" (RM_dplus.limbo_size rm))
    true
    (RM_dplus.limbo_size rm < 4 * n * 16 * 8)

(* Many seeds, small scale: every seed is a distinct interleaving. *)
let test_bst_seed_sweep () =
  for seed = 1 to 12 do
    let n = 3 in
    let group, rm = setup ~n ~seed in
    let t = T.create rm ~capacity:30_000 in
    let net = Array.make n 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| seed; pid |] in
      for _ = 1 to 150 do
        let key = 1 + Random.State.int rng 8 in
        if Random.State.bool rng then (
          if T.insert t ctx ~key ~value:key then net.(pid) <- net.(pid) + 1)
        else if T.delete t ctx key then net.(pid) <- net.(pid) - 1
      done
    in
    ignore
      (Sim.run ~machine:(Machine.Config.tiny ~contexts:2 ()) group
         (Array.init n body));
    T.check_invariants t;
    Alcotest.(check int)
      (Printf.sprintf "seed %d net size" seed)
      (Array.fold_left ( + ) 0 net)
      (T.size t)
  done

let test_list_seed_sweep () =
  for seed = 20 to 32 do
    let n = 3 in
    let group, rm = setup ~n ~seed in
    let t = L.create rm ~capacity:30_000 in
    let net = Array.make n 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| seed; pid |] in
      for _ = 1 to 150 do
        let key = Random.State.int rng 8 in
        if Random.State.bool rng then (
          if L.insert t ctx ~key ~value:key then net.(pid) <- net.(pid) + 1)
        else if L.delete t ctx key then net.(pid) <- net.(pid) - 1
      done
    in
    ignore
      (Sim.run ~machine:(Machine.Config.tiny ~contexts:2 ()) group
         (Array.init n body));
    L.check_invariants t;
    Alcotest.(check int)
      (Printf.sprintf "seed %d net size" seed)
      (Array.fold_left ( + ) 0 net)
      (L.size t)
  done

(* Random-walk scheduling: each seed is a different logical interleaving,
   far from the min-time schedule the benchmarks use. *)
let test_random_walk_interleavings () =
  for seed = 1 to 15 do
    let n = 3 in
    let group, rm = setup ~n ~seed in
    let t = T.create rm ~capacity:30_000 in
    let net = Array.make n 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| seed; pid; 3 |] in
      for _ = 1 to 120 do
        let key = 1 + Random.State.int rng 6 in
        if Random.State.bool rng then (
          if T.insert t ctx ~key ~value:key then net.(pid) <- net.(pid) + 1)
        else if T.delete t ctx key then net.(pid) <- net.(pid) - 1
      done
    in
    ignore
      (Sim.run
         ~machine:(Machine.Config.tiny ~contexts:3 ())
         ~policy:(`Random_walk (seed * 37))
         group (Array.init n body));
    T.check_invariants t;
    Alcotest.(check int)
      (Printf.sprintf "random-walk seed %d net size" seed)
      (Array.fold_left ( + ) 0 net)
      (T.size t)
  done

let () =
  Alcotest.run "neutralize"
    [
      ( "debra+",
        [
          Alcotest.test_case "bst neutralized under stalls" `Quick
            test_bst_neutralized_under_stalls;
          Alcotest.test_case "bst 12-seed interleaving sweep" `Quick
            test_bst_seed_sweep;
          Alcotest.test_case "list 13-seed interleaving sweep" `Quick
            test_list_seed_sweep;
          Alcotest.test_case "bst 15-seed random-walk schedules" `Quick
            test_random_walk_interleavings;
        ] );
    ]
