(* Concurrent correctness of the EFRB-style external BST under every
   reclamation scheme, on the deterministic simulator.  Checks: net size
   accounting, BST ordering invariants, no reachable freed node, no
   double-free of descriptors (the arena would raise), and the DEBRA/DEBRA+
   fault-tolerance contrast. *)

let params_small =
  {
    Reclaim.Intf.Params.default with
    Reclaim.Intf.Params.block_capacity = 32;
    incr_thresh = 4;
  }

module Harness (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module T = Ds.Efrb_bst.Make (RM)

  let setup ~n ~seed ~params =
    let group = Runtime.Group.create ~seed n in
    let heap = Memory.Heap.create () in
    let env = Reclaim.Intf.Env.create ~params group heap in
    let rm = RM.create env in
    (group, heap, rm)

  let run_random ?(machine = Machine.Config.tiny ~contexts:4 ())
      ?(params = params_small) ~n ~ops ~range ~seed () =
    let group, heap, rm = setup ~n ~seed ~params in
    let t = T.create rm ~capacity:(2 * ((n * ops) + range + 4)) in
    let net = Array.make n 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| seed; pid; 99 |] in
      for _ = 1 to ops do
        let key = 1 + Random.State.int rng range in
        match Random.State.int rng 3 with
        | 0 ->
            if T.insert t ctx ~key ~value:(key * 3) then
              net.(pid) <- net.(pid) + 1
        | 1 -> if T.delete t ctx key then net.(pid) <- net.(pid) - 1
        | _ -> ignore (T.contains t ctx key)
      done
    in
    let _ = Sim.run ~machine group (Array.init n body) in
    T.check_invariants t;
    let expect = Array.fold_left ( + ) 0 net in
    (expect, T.size t, heap, rm, t)

  let test_random ~n ~ops ~range ~seed () =
    let expect, got, _, _, _ = run_random ~n ~ops ~range ~seed () in
    Alcotest.(check int) "net size" expect got

  let test_sequential () =
    let group, _heap, rm = setup ~n:1 ~seed:3 ~params:params_small in
    let t = T.create rm ~capacity:4096 in
    let ctx = Runtime.Group.ctx group 0 in
    Alcotest.(check bool) "insert 5" true (T.insert t ctx ~key:5 ~value:50);
    Alcotest.(check bool) "insert 3" true (T.insert t ctx ~key:3 ~value:30);
    Alcotest.(check bool) "insert 8" true (T.insert t ctx ~key:8 ~value:80);
    Alcotest.(check bool) "dup 5" false (T.insert t ctx ~key:5 ~value:51);
    Alcotest.(check (option int)) "get 3" (Some 30) (T.get t ctx 3);
    Alcotest.(check (option int)) "get 9" None (T.get t ctx 9);
    Alcotest.(check (list int)) "sorted" [ 3; 5; 8 ] (T.to_list t);
    Alcotest.(check bool) "delete 3" true (T.delete t ctx 3);
    Alcotest.(check bool) "delete 3 again" false (T.delete t ctx 3);
    Alcotest.(check bool) "contains 5" true (T.contains t ctx 5);
    Alcotest.(check bool) "contains 3" false (T.contains t ctx 3);
    T.check_invariants t;
    Alcotest.(check (list int)) "final" [ 5; 8 ] (T.to_list t)

  let test_delete_reinsert_cycles () =
    (* Exercises descriptor reclamation heavily: the same keys churn, so
       update words are overwritten and descriptors retired over and over. *)
    let group, _heap, rm = setup ~n:1 ~seed:4 ~params:params_small in
    let t = T.create rm ~capacity:300_000 in
    let ctx = Runtime.Group.ctx group 0 in
    for round = 1 to 200 do
      for key = 1 to 20 do
        ignore (T.insert t ctx ~key ~value:round)
      done;
      for key = 1 to 20 do
        Alcotest.(check bool) "delete" true (T.delete t ctx key)
      done
    done;
    Alcotest.(check int) "empty" 0 (T.size t);
    T.check_invariants t

  let crash_limbo ~ops () =
    let n = 4 in
    let params = { params_small with Reclaim.Intf.Params.incr_thresh = 1 } in
    let group, _heap, rm = setup ~n ~seed:11 ~params in
    let t = T.create rm ~capacity:(2 * ((n * ops) + 64)) in
    let ctx0 = Runtime.Group.ctx group 0 in
    for key = 1 to 32 do
      ignore (T.insert t ctx0 ~key ~value:key)
    done;
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      if pid = 0 then begin
        RM.leave_qstate rm ctx;
        ignore (Memory.Arena.read ctx t.T.internal t.T.root 0);
        Runtime.Ctx.crash ctx
      end
      else
        let rng = Random.State.make [| 13; pid |] in
        for _ = 1 to ops do
          let key = 1 + Random.State.int rng 32 in
          if Random.State.bool rng then ignore (T.insert t ctx ~key ~value:key)
          else ignore (T.delete t ctx key)
        done
    in
    let res =
      Sim.run
        ~machine:(Machine.Config.tiny ~contexts:4 ())
        group (Array.init n body)
    in
    Alcotest.(check bool) "pid 0 crashed" true res.Sim.crashed.(0);
    T.check_invariants t;
    RM.limbo_size rm

  let cases name =
    [
      Alcotest.test_case (name ^ " sequential") `Quick test_sequential;
      Alcotest.test_case (name ^ " churn") `Quick test_delete_reinsert_cycles;
      Alcotest.test_case (name ^ " 2p small") `Quick
        (test_random ~n:2 ~ops:400 ~range:16 ~seed:1);
      Alcotest.test_case (name ^ " 4p contended") `Quick
        (test_random ~n:4 ~ops:400 ~range:8 ~seed:2);
      Alcotest.test_case (name ^ " 4p wide") `Quick
        (test_random ~n:4 ~ops:400 ~range:512 ~seed:3);
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
  H.crash_limbo ~ops:2000 ()

let test_crash_debra_grows () =
  let limbo = crash_limbo "debra" in
  Alcotest.(check bool)
    (Printf.sprintf "debra limbo grows (got %d)" limbo)
    true (limbo > 1500)

let test_crash_debra_plus_bounded () =
  let limbo = crash_limbo "debra+" in
  Alcotest.(check bool)
    (Printf.sprintf "debra+ limbo bounded (got %d)" limbo)
    true (limbo < 1500)

(* The update word packs (state, descriptor slot, descriptor generation)
   into one CASable integer; roundtrip it over the descriptor arena. *)
let test_update_word_packing () =
  let module RM_debra = (val rm "debra") in
  let module H = Harness (RM_debra) in
  let group, _heap, rm = H.setup ~n:1 ~seed:2 ~params:params_small in
  let module T = H.T in
  let t = T.create rm ~capacity:1024 in
  let ctx = Runtime.Group.ctx group 0 in
  Alcotest.(check int) "clean-null" 0 (T.pack t ~state:T.clean ~info:Memory.Ptr.null);
  for _ = 1 to 50 do
    let info = RM_debra.alloc rm ctx t.T.info in
    List.iter
      (fun state ->
        let w = T.pack t ~state ~info in
        Alcotest.(check int) "state" state (T.state_of w);
        Alcotest.(check int) "info" info (T.info_of t w))
      [ T.clean; T.iflag; T.dflag; T.mark ];
    (* words with distinct generations differ *)
    RM_debra.dealloc rm ctx info
  done

let () =
  Alcotest.run "efrb_bst"
    (List.map
       (fun s -> (s, cases s))
       [ "none"; "ebr"; "debra"; "debra+"; "hp" ]
    @ [
        ("malloc+debra+", cases ~variant:Exp3 ~label:"malloc" "debra+");
        ("qsbr", cases "qsbr");
        ("rc", cases "rc");
        ( "fault-tolerance",
          [
            Alcotest.test_case "crashed process blocks DEBRA" `Quick
              test_crash_debra_grows;
            Alcotest.test_case "DEBRA+ stays bounded across crash" `Quick
              test_crash_debra_plus_bounded;
          ] );
        ( "descriptors",
          [
            Alcotest.test_case "update word packing" `Quick
              test_update_word_packing;
          ] );
      ])
