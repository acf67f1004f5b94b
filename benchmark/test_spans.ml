(* The benchmark's own checks: the timing functors close every span they
   open, also when an exception passes through them; self times add up to
   the operation spans; tracing leaves the simulated run unchanged; and
   BENCHMARK.json lists the metrics the program reports. *)

open Benchkit
open Reclaim

let cycles_per_us = Exec.Clock.cycles_per_us Exec.Clock.sim

let check_nesting (s : Span.summary) =
  Alcotest.(check int) "every span opened was closed" s.s_opens s.s_closes;
  Alcotest.(check int) "no span left open" 0 s.s_open_at_end;
  Alcotest.(check int) "no negative self time" 0 s.s_neg_self;
  Alcotest.(check int) "self times sum to the root spans" (Span.root_time s)
    (Span.self_time s)

(* A small simulated DEBRA+ BST trial with aggressive reclamation knobs and
   one process stalled mid-operation, so neutralization fires and aborts
   operations inside timed spans. *)
module Trial (RM : Intf.RECORD_MANAGER) = struct
  module Face = Workload.Set_adapter.Face (RM)
  module S = Face.Bst

  let params =
    { Intf.Params.default with Intf.Params.block_capacity = 8; suspect_blocks = 2 }

  let run ~traced =
    let n = 3 in
    let group = Runtime.Group.create ~seed:5 n in
    let heap = Memory.Heap.create () in
    let rm = RM.create (Intf.Env.create ~params group heap) in
    let s = S.create rm ~capacity:50_000 in
    let ctx0 = Runtime.Group.ctx group 0 in
    for key = 1 to 64 do
      ignore (S.insert s ctx0 ~key:(2 * key) ~value:key)
    done;
    if traced then begin
      Span.set_clock Runtime.Ctx.now;
      Span.limbo_gauge := (fun () -> RM.limbo_size rm);
      Span.reset ~n ~cycles_per_us
    end;
    let victim = Runtime.Group.ctx group (n - 1) in
    let fired = ref false in
    (* Under DEBRA+ only the retire and pool paths charge local work, so
       the victim parks inside one of those calls; taking the signal its
       peers sent meanwhile right there raises Neutralized through the
       reclaimer or pool span. *)
    let restore =
      Runtime.Ctx.add_hook victim (fun c ~line:_ kind ->
          match kind with
          | Runtime.Ctx.Work _
            when (not !fired) && Runtime.Ctx.now c >= 20_000
                 && not (RM.is_quiescent rm c) ->
              fired := true;
              Runtime.Ctx.stall c 400_000;
              Runtime.Ctx.poll c
          | _ -> ())
    in
    let lat = Array.make n [] in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| pid |] in
      for _ = 1 to 400 do
        let key = 1 + Random.State.int rng 128 in
        let t0 = Runtime.Ctx.now ctx in
        if traced then Span.enter ctx Span.k_op;
        (match
           if Random.State.bool rng then ignore (S.insert s ctx ~key ~value:key)
           else ignore (S.delete s ctx key)
         with
        | () -> if traced then Span.leave ctx
        | exception e -> if traced then Span.unwind ctx e else raise e);
        lat.(pid) <- (Runtime.Ctx.now ctx - t0) :: lat.(pid)
      done
    in
    let (module E : Exec.Intf.RUNNER) = Exec.Backend.runner `Sim in
    let r = E.run group (Array.init n body) in
    restore ();
    let spans = Span.summary (Span.stop ()) in
    S.check_invariants s;
    let neutralized = Runtime.Group.sum_stats group (fun st -> st.Runtime.Ctx.neutralized) in
    ( spans,
      neutralized,
      ( r.Exec.Intf.elapsed_cycles,
        neutralized,
        Runtime.Group.sum_stats group Runtime.Ctx.stats_total_accesses,
        Memory.Heap.bytes_peak heap,
        lat ) )
end

module Plain = Trial (Record_manager.Make (Alloc.Bump) (Pool.Shared) (Debra_plus.Make))

module Traced =
  Trial
    (Timed.Rm
       (Record_manager.Make
          (Timed.Alloc (Alloc.Bump))
          (Timed.Pool (Pool.Shared))
          (Timed.Reclaimer (Debra_plus.Make))))

let test_neutralized_trial () =
  let spans, neutralized, traced = Traced.run ~traced:true in
  let _, _, plain = Plain.run ~traced:false in
  Alcotest.(check bool) "the stalled process was neutralized" true (neutralized > 0);
  Alcotest.(check bool) "neutralization unwound timed spans" true (spans.s_unwound > 0);
  Alcotest.(check int) "one root span per operation" (3 * 400) spans.s_roots;
  check_nesting spans;
  Alcotest.(check bool) "traced run reproduces the untraced virtual metrics" true
    (traced = plain)

(* A full arena: the allocator raises through the allocator and pool
   spans. *)
let test_arena_full () =
  let module A = Timed.Alloc (Alloc.Bump) in
  let module P = Timed.Pool (Pool.Shared) (A) in
  let group = Runtime.Group.create 1 in
  let heap = Memory.Heap.create () in
  let env = Intf.Env.create group heap in
  let pool = P.create env (A.create env) in
  let arena = Memory.Heap.new_arena heap ~name:"tiny" ~mut_fields:1 ~const_fields:0 ~capacity:2 in
  let ctx = Runtime.Group.ctx group 0 in
  Span.reset ~n:1 ~cycles_per_us;
  Span.enter ctx Span.k_op;
  let raised =
    match
      for _ = 1 to 3 do
        ignore (P.allocate pool ctx arena)
      done
    with
    | () -> false
    | exception Memory.Arena.Arena_full _ -> true
  in
  Span.leave ctx;
  let s = Span.summary (Span.stop ()) in
  Alcotest.(check bool) "Arena_full raised" true raised;
  Alcotest.(check int) "pool and allocator spans unwound" 2 s.s_unwound;
  check_nesting s

(* A use-after-free trap raised by protect's validation step. *)
let test_use_after_free () =
  let module R = Timed.Reclaimer (Hp.Make) (Pool.Shared (Alloc.Bump)) in
  let group = Runtime.Group.create 1 in
  let heap = Memory.Heap.create () in
  let env = Intf.Env.create group heap in
  let r = R.create env (R.Pool.create env (R.Pool.Alloc.create env)) in
  let arena = Memory.Heap.new_arena heap ~name:"a" ~mut_fields:1 ~const_fields:0 ~capacity:4 in
  let ctx = Runtime.Group.ctx group 0 in
  let p = Memory.Arena.claim_fresh ctx arena in
  Span.reset ~n:1 ~cycles_per_us;
  Span.enter ctx Span.k_op;
  let raised =
    match
      R.protect r ctx p ~verify:(fun () -> raise (Memory.Arena.Use_after_free "stale"))
    with
    | _ -> false
    | exception Memory.Arena.Use_after_free _ -> true
  in
  R.unprotect_all r ctx;
  Span.leave ctx;
  let s = Span.summary (Span.stop ()) in
  Alcotest.(check bool) "Use_after_free raised" true raised;
  Alcotest.(check int) "protect span unwound" 1 s.s_unwound;
  check_nesting s

(* The definitions the program prints against the file the benchmark is
   run from. *)
let test_benchmark_json () =
  let file = List.find Sys.file_exists [ "../BENCHMARK.json"; "BENCHMARK.json" ] in
  let json = Telemetry.Json.of_string (In_channel.with_open_text file In_channel.input_all) in
  let entries key =
    match Telemetry.Json.member key json with
    | Some (Telemetry.Json.List l) -> l
    | _ -> Alcotest.failf "BENCHMARK.json: no %s list" key
  in
  let str k o =
    match Telemetry.Json.member k o with
    | Some (Telemetry.Json.String s) -> s
    | _ -> Alcotest.failf "BENCHMARK.json: missing %s" k
  in
  let num k o =
    match Telemetry.Json.member k o with
    | Some (Telemetry.Json.Float f) -> f
    | Some (Telemetry.Json.Int i) -> float_of_int i
    | _ -> Alcotest.failf "BENCHMARK.json: missing %s" k
  in
  let better = function Metrics.Higher -> "higher" | Metrics.Lower -> "lower" in
  let listed key ~bound =
    List.map
      (fun o ->
        (str "name" o, str "unit" o, str "better" o, if bound then num "bound" o else 0.))
      (entries key)
  in
  let defined defs =
    List.map (fun (d : Metrics.def) -> (d.name, d.unit_, better d.better, d.bound)) defs
  in
  Alcotest.(check (list (pair string (pair string (pair string (float 0.))))))
    "end_to_end"
    (List.map (fun (a, b, c, d) -> (a, (b, (c, d)))) (defined Metrics.end_to_end))
    (List.map (fun (a, b, c, d) -> (a, (b, (c, d)))) (listed "end_to_end" ~bound:true));
  Alcotest.(check (list (pair string (pair string string))))
    "per_layer"
    (List.map (fun (a, b, c, _) -> (a, (b, c))) (defined Metrics.per_layer))
    (List.map (fun (a, b, c, _) -> (a, (b, c))) (listed "per_layer" ~bound:false));
  Alcotest.(check (list string))
    "explore-b2 runs every scheme the harness explores" Workload.Lin_harness.scheme_names
    (List.map fst Explore_b2.runs);
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    (List.map (str "name") (entries "workloads"))

let () =
  Alcotest.run "benchmark"
    [
      ( "spans",
        [
          Alcotest.test_case "neutralized sim trial" `Quick test_neutralized_trial;
          Alcotest.test_case "arena full" `Quick test_arena_full;
          Alcotest.test_case "use after free" `Quick test_use_after_free;
        ] );
      ("definitions", [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ]);
    ]
