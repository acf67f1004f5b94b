(** Bechamel microbenchmarks of the Record Manager primitives, run directly
    (no simulator, hooks disabled): the real OCaml-level cost of
    leaveQstate/enterQstate, retire, and protect for each scheme.  These are
    the per-operation and per-record costs whose asymmetry (O(1) per op for
    epochs vs work-per-record for HP) drives every throughput figure. *)

open Bechamel
open Toolkit

module Prim (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  let make_env () =
    let group = Runtime.Group.create 4 in
    let heap = Memory.Heap.create () in
    let env = Reclaim.Intf.Env.create group heap in
    let arena =
      Memory.Heap.new_arena heap ~name:"micro" ~mut_fields:2 ~const_fields:1
        ~capacity:(1 lsl 16)
    in
    let rm = RM.create env in
    (Runtime.Group.ctx group 0, arena, rm)

  let tests name =
    let ctx, arena, rm = make_env () in
    let quiesce =
      Test.make
        ~name:(name ^ "/leave+enter_qstate")
        (Staged.stage (fun () ->
             RM.leave_qstate rm ctx;
             RM.enter_qstate rm ctx))
    in
    let retire_cycle =
      Test.make
        ~name:(name ^ "/alloc+retire")
        (Staged.stage (fun () ->
             RM.leave_qstate rm ctx;
             let p = RM.alloc rm ctx arena in
             RM.retire rm ctx p;
             RM.enter_qstate rm ctx))
    in
    let ctx2, arena2, rm2 = make_env () in
    let target = RM.alloc rm2 ctx2 arena2 in
    let protect =
      Test.make
        ~name:(name ^ "/protect+unprotect")
        (Staged.stage (fun () ->
             ignore (RM.protect rm2 ctx2 target ~verify:(fun () -> true));
             RM.unprotect rm2 ctx2 target))
    in
    [ quiesce; retire_cycle; protect ]
end

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw_results =
    Benchmark.all cfg instances (Test.make_grouped ~name:"rm" tests)
  in
  Analyze.all ols Instance.monotonic_clock raw_results

let run () =
  Printf.printf
    "\n===== Microbenchmarks (Bechamel, real execution, ns/op) =====\n%!";
  let tests =
    List.concat_map
      (fun name ->
        let module RM =
          (val Reclaim.Registry.rm Exp2 (Reclaim.Registry.find name))
        in
        let module P = Prim (RM) in
        P.tests name)
      [ "none"; "ebr"; "debra"; "debra+"; "hp" ]
  in
  let results = benchmark tests in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (x :: _) -> Printf.sprintf "%.1f" x
        | _ -> "n/a"
      in
      rows := [ name; ns ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  Workload.Report.table ~title:"Record Manager primitives"
    ~header:[ "operation"; "ns/op" ] ~rows
