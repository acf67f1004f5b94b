(* Concurrent correctness of the lazy skip list (lock-based updates,
   lock-free searches) under the paper's reclamation schemes — including
   DEBRA+, which the lock-held-window masking in the implementation makes
   safe (the paper instead forbids the pairing): see the "debra+" section,
   which mirrors test_neutralize.ml's laggard/seed-sweep patterns. *)

let params =
  {
    Reclaim.Intf.Params.default with
    Reclaim.Intf.Params.block_capacity = 32;
    hp_slots = 48;
  }

module Harness (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module S = Ds.Skiplist.Make (RM)

  let setup ~n ~seed =
    let group = Runtime.Group.create ~seed n in
    let heap = Memory.Heap.create () in
    let env = Reclaim.Intf.Env.create ~params group heap in
    let rm = RM.create env in
    (group, heap, rm)

  let run_random ?(machine = Machine.Config.tiny ~contexts:4 ()) ~n ~ops
      ~range ~seed () =
    let group, _heap, rm = setup ~n ~seed in
    let s = S.create rm ~capacity:((n * ops) + range + 4) in
    let net = Array.make n 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| seed; pid; 123 |] in
      for _ = 1 to ops do
        let key = 1 + Random.State.int rng range in
        match Random.State.int rng 3 with
        | 0 ->
            if S.insert s ctx ~key ~value:(key * 3) then
              net.(pid) <- net.(pid) + 1
        | 1 -> if S.delete s ctx key then net.(pid) <- net.(pid) - 1
        | _ -> ignore (S.contains s ctx key)
      done
    in
    let _ = Sim.run ~machine group (Array.init n body) in
    S.check_invariants s;
    (Array.fold_left ( + ) 0 net, S.size s)

  let test_random ~n ~ops ~range ~seed () =
    let expect, got = run_random ~n ~ops ~range ~seed () in
    Alcotest.(check int) "net size" expect got

  let test_sequential () =
    let group, _heap, rm = setup ~n:1 ~seed:3 in
    let s = S.create rm ~capacity:4096 in
    let ctx = Runtime.Group.ctx group 0 in
    Alcotest.(check bool) "ins 10" true (S.insert s ctx ~key:10 ~value:1);
    Alcotest.(check bool) "ins 20" true (S.insert s ctx ~key:20 ~value:2);
    Alcotest.(check bool) "ins 15" true (S.insert s ctx ~key:15 ~value:3);
    Alcotest.(check bool) "dup" false (S.insert s ctx ~key:15 ~value:4);
    Alcotest.(check (list int)) "sorted" [ 10; 15; 20 ] (S.to_list s);
    Alcotest.(check (option int)) "get" (Some 3) (S.get s ctx 15);
    Alcotest.(check bool) "del" true (S.delete s ctx 15);
    Alcotest.(check bool) "del again" false (S.delete s ctx 15);
    Alcotest.(check bool) "contains" true (S.contains s ctx 20);
    S.check_invariants s;
    Alcotest.(check (list int)) "final" [ 10; 20 ] (S.to_list s)

  let test_churn () =
    let group, _heap, rm = setup ~n:1 ~seed:4 in
    let s = S.create rm ~capacity:100_000 in
    let ctx = Runtime.Group.ctx group 0 in
    for round = 1 to 100 do
      for key = 1 to 25 do
        ignore (S.insert s ctx ~key ~value:round)
      done;
      for key = 1 to 25 do
        Alcotest.(check bool) "delete" true (S.delete s ctx key)
      done
    done;
    Alcotest.(check int) "empty" 0 (S.size s);
    S.check_invariants s

  let cases name =
    [
      Alcotest.test_case (name ^ " sequential") `Quick test_sequential;
      Alcotest.test_case (name ^ " churn") `Quick test_churn;
      Alcotest.test_case (name ^ " 2p small") `Quick
        (test_random ~n:2 ~ops:300 ~range:16 ~seed:1);
      Alcotest.test_case (name ^ " 4p contended") `Quick
        (test_random ~n:4 ~ops:300 ~range:8 ~seed:2);
      Alcotest.test_case (name ^ " 4p wide") `Quick
        (test_random ~n:4 ~ops:300 ~range:512 ~seed:3);
      Alcotest.test_case (name ^ " 6p oversubscribed") `Quick
        (test_random ~n:6 ~ops:200 ~range:32 ~seed:4);
    ]
end

module Registry = Reclaim.Registry

(* Each scheme under its Experiment 2 pairing (Exp3 for the malloc case;
   StackTrack's arena-visible frees come with its registry pairing). *)
let rm ?(variant = Registry.Exp2) scheme =
  Registry.rm variant (Registry.find scheme)

let cases ?variant ?(label = "") scheme =
  let module RM = (val rm ?variant scheme) in
  let module H = Harness (RM) in
  H.cases (if label = "" then scheme else label)

module RM_dplus = (val rm "debra+")

(* DEBRA+ neutralization coverage.  Aggressive thresholds so signals
   actually fire; [S.create] flips the group to unreliable ack-based
   delivery itself (required by the masking protocol). *)
module Neutralize = struct
  module S = Ds.Skiplist.Make (RM_dplus)

  let nparams =
    {
      Reclaim.Intf.Params.default with
      Reclaim.Intf.Params.block_capacity = 16;
      incr_thresh = 1;
      suspect_blocks = 1;
    }

  let setup ~n ~seed =
    let group = Runtime.Group.create ~seed n in
    let heap = Memory.Heap.create () in
    let env = Reclaim.Intf.Env.create ~params:nparams group heap in
    let rm = RM_dplus.create env in
    (group, rm)

  (* One process stalls mid-operation often enough to draw signals; the
     run must actually neutralize, stay linearizable (net-size), and keep
     limbo bounded. *)
  let test_neutralized_under_stalls () =
    let n = 4 in
    let ops = 500 in
    let group, rm = setup ~n ~seed:57 in
    let s = S.create rm ~capacity:(8 * n * ops) in
    Alcotest.(check bool)
      "create switched the group to unreliable delivery" true
      group.Runtime.Group.signals_unreliable;
    let net = Array.make n 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| 23; pid |] in
      for i = 1 to ops do
        let key = 1 + Random.State.int rng 32 in
        (if Random.State.bool rng then (
           if S.insert s ctx ~key ~value:key then net.(pid) <- net.(pid) + 1)
         else if S.delete s ctx key then net.(pid) <- net.(pid) - 1);
        (* The laggard dawdles mid-stream, leaving an operation open (no
           lock held: masked windows defer the signal, so the open
           traversal is what draws it). *)
        if pid = 0 && i mod 5 = 0 then begin
          RM_dplus.leave_qstate rm ctx;
          ignore (Memory.Arena.read ctx s.S.arena s.S.head (S.f_next 0));
          Runtime.Ctx.stall ctx 50_000;
          (try ignore (Memory.Arena.read ctx s.S.arena s.S.head (S.f_next 0))
           with Runtime.Ctx.Neutralized -> ());
          RM_dplus.enter_qstate rm ctx
        end
      done
    in
    ignore
      (Sim.run ~machine:(Machine.Config.tiny ~contexts:2 ()) group
         (Array.init n body));
    S.check_invariants s;
    Alcotest.(check int) "net size" (Array.fold_left ( + ) 0 net) (S.size s);
    let neutralized =
      Runtime.Group.sum_stats group (fun st -> st.Runtime.Ctx.neutralized)
    in
    Alcotest.(check bool)
      (Printf.sprintf "neutralizations happened (%d)" neutralized)
      true (neutralized > 0);
    Alcotest.(check bool)
      (Printf.sprintf "limbo bounded (%d)" (RM_dplus.limbo_size rm))
      true
      (RM_dplus.limbo_size rm < 4 * n * 16 * 8)

  (* Many seeds, small scale: each seed is a distinct interleaving. *)
  let test_seed_sweep () =
    for seed = 40 to 52 do
      let n = 3 in
      let group, rm = setup ~n ~seed in
      let s = S.create rm ~capacity:30_000 in
      let net = Array.make n 0 in
      let body pid () =
        let ctx = Runtime.Group.ctx group pid in
        let rng = Random.State.make [| seed; pid; 9 |] in
        for _ = 1 to 150 do
          let key = 1 + Random.State.int rng 8 in
          if Random.State.bool rng then (
            if S.insert s ctx ~key ~value:key then net.(pid) <- net.(pid) + 1)
          else if S.delete s ctx key then net.(pid) <- net.(pid) - 1
        done
      in
      ignore
        (Sim.run ~machine:(Machine.Config.tiny ~contexts:2 ()) group
           (Array.init n body));
      S.check_invariants s;
      Alcotest.(check int)
        (Printf.sprintf "seed %d net size" seed)
        (Array.fold_left ( + ) 0 net)
        (S.size s)
    done

  let test_random_walk () =
    for seed = 1 to 12 do
      let n = 3 in
      let group, rm = setup ~n ~seed in
      let s = S.create rm ~capacity:30_000 in
      let net = Array.make n 0 in
      let body pid () =
        let ctx = Runtime.Group.ctx group pid in
        let rng = Random.State.make [| seed; pid; 11 |] in
        for _ = 1 to 120 do
          let key = 1 + Random.State.int rng 6 in
          if Random.State.bool rng then (
            if S.insert s ctx ~key ~value:key then net.(pid) <- net.(pid) + 1)
          else if S.delete s ctx key then net.(pid) <- net.(pid) - 1
        done
      in
      ignore
        (Sim.run
           ~machine:(Machine.Config.tiny ~contexts:3 ())
           ~policy:(`Random_walk (seed * 41))
           group (Array.init n body));
      S.check_invariants s;
      Alcotest.(check int)
        (Printf.sprintf "random-walk seed %d net size" seed)
        (Array.fold_left ( + ) 0 net)
        (S.size s)
    done

  let cases =
    [
      Alcotest.test_case "debra+ neutralized under stalls" `Quick
        test_neutralized_under_stalls;
      Alcotest.test_case "debra+ 13-seed interleaving sweep" `Quick
        test_seed_sweep;
      Alcotest.test_case "debra+ 12-seed random-walk schedules" `Quick
        test_random_walk;
    ]
end

let () =
  Alcotest.run "skiplist"
    (List.map (fun s -> (s, cases s)) [ "none"; "ebr"; "debra"; "hp" ]
    @ [ ("malloc+debra", cases ~variant:Exp3 ~label:"malloc" "debra") ]
    @ List.map (fun s -> (s, cases s)) [ "stacktrack"; "threadscan" ]
    @ [ ("debra+", Neutralize.cases) ])
