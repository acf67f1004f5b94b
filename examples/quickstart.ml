(* Quickstart: a lock-free BST set with DEBRA reclamation, exercised by four
   simulated processes.

   The recipe:
   1. pick a Record Manager   = allocator + pool + reclaimer (one line);
   2. instantiate a structure = functor application over the Record Manager;
   3. create a process group, an arena heap, and the shared environment;
   4. run process bodies — under the deterministic machine simulator here,
      or on real domains with Exec.Domain_exec.run.

   Run with: dune exec examples/quickstart.exe *)

module RM =
  Reclaim.Record_manager.Make (Reclaim.Alloc.Bump) (Reclaim.Pool.Shared)
    (Reclaim.Debra.Make)

module Tree = Ds.Efrb_bst.Make (RM)

let () =
  let nprocs = 4 in
  let group = Runtime.Group.create ~seed:42 nprocs in
  let heap = Memory.Heap.create () in
  let env = Reclaim.Intf.Env.create group heap in
  let rm = RM.create env in
  let tree = Tree.create rm ~capacity:100_000 in

  (* Sequential warm-up from process 0's context.  Keys are inserted in
     shuffled order: the tree is unbalanced, so sorted insertion would
     degenerate it into a list. *)
  let ctx0 = Runtime.Group.ctx group 0 in
  let keys = Array.init 1000 (fun i -> i + 1) in
  let rng = Random.State.make [| 99 |] in
  for i = 999 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- tmp
  done;
  Array.iter (fun key -> ignore (Tree.insert tree ctx0 ~key ~value:(key * key))) keys;
  Printf.printf "prefilled: %d keys; get 25 -> %s\n" (Tree.size tree)
    (match Tree.get tree ctx0 25 with
    | Some v -> string_of_int v
    | None -> "absent");

  (* Concurrent phase: every process hammers the same key range. *)
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    let rng = Random.State.make [| 7; pid |] in
    for _ = 1 to 5_000 do
      let key = 1 + Random.State.int rng 2000 in
      match Random.State.int rng 3 with
      | 0 -> ignore (Tree.insert tree ctx ~key ~value:key)
      | 1 -> ignore (Tree.delete tree ctx key)
      | _ -> ignore (Tree.contains tree ctx key)
    done
  in
  let result = Sim.run group (Array.init nprocs body) in
  Tree.check_invariants tree;
  let ops = Runtime.Group.sum_stats group (fun s -> s.Runtime.Ctx.ops) in
  Printf.printf
    "ran %d operations over %d simulated cycles (%.2f Mops/s at 3 GHz)\n" ops
    result.Sim.virtual_time
    (Exec.Clock.mops Exec.Clock.sim ~ops ~cycles:result.Sim.virtual_time);
  Printf.printf "final size: %d keys, %d records live, %d awaiting reclamation\n"
    (Tree.size tree)
    (Memory.Heap.live_records heap)
    (RM.limbo_size rm);
  Printf.printf "scheme: %s\n" RM.scheme_name
