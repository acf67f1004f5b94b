(* Concurrent correctness of the lock-free hash set (bucketed Harris-Michael
   lists sharing one arena and Record Manager). *)

module Harness (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module H = Ds.Hash_set_lf.Make (RM)

  let run ~n ~ops ~range ~seed () =
    let group = Runtime.Group.create ~seed n in
    let heap = Memory.Heap.create () in
    let env = Reclaim.Intf.Env.create group heap in
    let rm = RM.create env in
    let h = H.create rm ~buckets:32 ~capacity:(range + (n * ops)) in
    let net = Array.make n 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| seed; pid |] in
      for _ = 1 to ops do
        let key = Random.State.int rng range in
        match Random.State.int rng 3 with
        | 0 -> if H.insert h ctx ~key ~value:key then net.(pid) <- net.(pid) + 1
        | 1 -> if H.delete h ctx key then net.(pid) <- net.(pid) - 1
        | _ -> ignore (H.contains h ctx key)
      done
    in
    ignore
      (Sim.run ~machine:(Machine.Config.tiny ~contexts:4 ()) group
         (Array.init n body));
    H.check_invariants h;
    Alcotest.(check int) "net size" (Array.fold_left ( + ) 0 net) (H.size h)

  let sequential () =
    let group = Runtime.Group.create ~seed:1 1 in
    let heap = Memory.Heap.create () in
    let env = Reclaim.Intf.Env.create group heap in
    let rm = RM.create env in
    let h = H.create rm ~buckets:8 ~capacity:4096 in
    let ctx = Runtime.Group.ctx group 0 in
    for key = 0 to 99 do
      Alcotest.(check bool) "insert" true (H.insert h ctx ~key ~value:(2 * key))
    done;
    Alcotest.(check int) "size" 100 (H.size h);
    Alcotest.(check (option int)) "get" (Some 84) (H.get h ctx 42);
    Alcotest.(check bool) "dup" false (H.insert h ctx ~key:42 ~value:0);
    for key = 0 to 99 do
      if key mod 2 = 0 then
        Alcotest.(check bool) "delete" true (H.delete h ctx key)
    done;
    Alcotest.(check int) "half left" 50 (H.size h);
    Alcotest.(check (list int)) "odds"
      (List.init 50 (fun i -> (2 * i) + 1))
      (H.to_list h);
    H.check_invariants h

  let cases name =
    [
      Alcotest.test_case (name ^ " sequential") `Quick sequential;
      Alcotest.test_case (name ^ " 4p") `Quick (run ~n:4 ~ops:400 ~range:64 ~seed:2);
      Alcotest.test_case (name ^ " 6p oversub") `Quick
        (run ~n:6 ~ops:300 ~range:256 ~seed:3);
    ]
end

(* Each scheme under its Experiment 2 pairing. *)
let cases scheme =
  let module RM =
    (val Reclaim.Registry.rm Exp2 (Reclaim.Registry.find scheme))
  in
  let module H = Harness (RM) in
  (scheme, H.cases scheme)

let () = Alcotest.run "hash_set" (List.map cases [ "debra"; "debra+"; "hp" ])
