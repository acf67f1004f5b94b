(* Fault-injection tests: crash during neutralization, signals to dead
   processes, crashed ThreadScan collectors, queue linearizability under
   crashes (via the FIFO oracle), bounded-memory emergency reclamation, and
   determinism of the chaos engine itself. *)

let params =
  {
    Reclaim.Intf.Params.default with
    Reclaim.Intf.Params.block_capacity = 16;
    incr_thresh = 4;
    pool_cap_blocks = 2;
  }

let or_wedged f =
  try f ()
  with Sim.Stuck i ->
    Alcotest.failf "simulation wedged: %s (after %d steps)" i.Sim.s_reason
      i.Sim.s_steps

(* A faulted trial's limbo, judged as the fault campaigns judge it: by
   the scheme's own declared robustness. *)
let within_declared_bound scheme ~n o =
  match
    Reclaim.Registry.(limbo_verdict (find scheme))
      ~n params ~limbo:o.Workload.Trial.limbo
  with
  | None -> ()
  | Some e -> Alcotest.failf "%s: %s" scheme e

(* ------------------------------------------------------------------ *)
(* Crash during neutralization: a DEBRA+ process dies mid-operation, so
   the epoch stops advancing until the survivors suspect it and try to
   neutralize — and every signal to the corpse comes back ESRCH.  The
   trial must complete (no wedge), the sanitizer must see no double
   frees, the final structure must pass its invariant walk, and limbo
   must stay within the paper's bound, as DEBRA+ declares it. *)

module BP = Workload.Trial.Run (Workload.Schemes.RM2_debra_plus)

let crash_mid_op ~policy ~seed () =
  let n = 6 in
  let plan =
    Chaos.
      { seed; faults = [ Crash { pid = 2; at = 3_000; kind = In_operation } ] }
  in
  let o =
    or_wedged (fun () ->
        BP.trial BP.Face.bst
          ~params ~duration:400_000 ~sanitize:true ~chaos:plan
          ~max_steps:20_000_000 ~policy ~n ~range:512 ~ins:50 ~del:50 ~seed ())
  in
  Alcotest.(check int) "one process crashed" 1 o.Workload.Trial.crashed;
  Alcotest.(check (option int)) "sanitizer silent" (Some 0)
    o.Workload.Trial.violations;
  Alcotest.(check (option string)) "invariants hold" None
    o.Workload.Trial.invariant_failure;
  within_declared_bound "debra+" ~n o;
  if o.Workload.Trial.ops = 0 then Alcotest.fail "survivors performed no ops"

let crash_cases =
  Alcotest.test_case "min-time schedule" `Quick
    (crash_mid_op ~policy:`Min_time ~seed:11)
  :: List.map
       (fun seed ->
         Alcotest.test_case
           (Printf.sprintf "random-walk seed %d" seed)
           `Quick
           (crash_mid_op ~policy:(`Random_walk seed) ~seed))
       [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* Die inside the signal handler itself: the corpse was neutralized and
   never ran its recovery; survivors must still finish and reclaim. *)
let crash_in_handler () =
  let seed = 23 in
  let plan =
    Chaos.{ seed; faults = [ Crash { pid = -1; at = 1; kind = In_handler } ] }
  in
  let o =
    or_wedged (fun () ->
        BP.trial BP.Face.bst
          ~params ~duration:400_000 ~sanitize:true ~chaos:plan
          ~max_steps:20_000_000 ~n:6 ~range:512 ~ins:50 ~del:50 ~seed ())
  in
  Alcotest.(check (option int)) "sanitizer silent" (Some 0)
    o.Workload.Trial.violations;
  (match o.Workload.Trial.chaos with
  | Some s when s.Chaos.handler_crashes = 1 -> ()
  | Some s ->
      Alcotest.failf "expected 1 handler crash, engine reports %d"
        s.Chaos.handler_crashes
  | None -> Alcotest.fail "no chaos summary on a faulted trial");
  Alcotest.(check (option string)) "invariants hold" None
    o.Workload.Trial.invariant_failure

(* ------------------------------------------------------------------ *)
(* The next-generation reclaimers under the same crash: VBR reclaims with
   no grace period at all, so a corpse cannot pin its limbo; Hyaline only
   keeps batches charged to sessions the corpse opened before dying (its
   seal skips crashed processes), so limbo stays within its declared
   bound. *)

module BV = Workload.Trial.Run (Workload.Schemes.RM2_vbr)
module BH = Workload.Trial.Run (Workload.Schemes.RM2_hyaline)

let crash_mid_op_vbr ~policy ~seed () =
  let n = 6 in
  let plan =
    Chaos.
      { seed; faults = [ Crash { pid = 2; at = 3_000; kind = In_operation } ] }
  in
  let o =
    or_wedged (fun () ->
        BV.trial BV.Face.bst
          ~params ~duration:400_000 ~sanitize:true ~chaos:plan
          ~max_steps:20_000_000 ~policy ~n ~range:512 ~ins:50 ~del:50 ~seed ())
  in
  Alcotest.(check int) "one process crashed" 1 o.Workload.Trial.crashed;
  Alcotest.(check (option int)) "sanitizer silent" (Some 0)
    o.Workload.Trial.violations;
  Alcotest.(check (option string)) "invariants hold" None
    o.Workload.Trial.invariant_failure;
  within_declared_bound "vbr" ~n o;
  if o.Workload.Trial.ops = 0 then Alcotest.fail "survivors performed no ops"

let crash_mid_op_hyaline ~policy ~seed () =
  let n = 6 in
  let plan =
    Chaos.
      { seed; faults = [ Crash { pid = 2; at = 3_000; kind = In_operation } ] }
  in
  let o =
    or_wedged (fun () ->
        BH.trial BH.Face.bst
          ~params ~duration:400_000 ~sanitize:true ~chaos:plan
          ~max_steps:20_000_000 ~policy ~n ~range:512 ~ins:50 ~del:50 ~seed ())
  in
  Alcotest.(check int) "one process crashed" 1 o.Workload.Trial.crashed;
  Alcotest.(check (option int)) "sanitizer silent" (Some 0)
    o.Workload.Trial.violations;
  Alcotest.(check (option string)) "invariants hold" None
    o.Workload.Trial.invariant_failure;
  within_declared_bound "hyaline" ~n o;
  if o.Workload.Trial.ops = 0 then Alcotest.fail "survivors performed no ops"

(* ------------------------------------------------------------------ *)
(* ThreadScan regression: a crashed process holding the collector role
   (the global scan lock) must not wedge the others — survivors steal
   the lock and treat the corpse's missing ack as vacuous. *)

module BT = Workload.Trial.Run (Workload.Schemes.RM2_ts)

let threadscan_crashed_collector ~seed () =
  let plan =
    Chaos.{ seed; faults = [ Crash { pid = 1; at = 5_000; kind = Anywhere } ] }
  in
  let o =
    or_wedged (fun () ->
        BT.trial BT.Face.bst
          ~params ~duration:300_000 ~sanitize:true ~chaos:plan
          ~max_steps:20_000_000 ~n:4 ~range:512 ~ins:50 ~del:50 ~seed ())
  in
  Alcotest.(check int) "one process crashed" 1 o.Workload.Trial.crashed;
  Alcotest.(check (option int)) "sanitizer silent" (Some 0)
    o.Workload.Trial.violations;
  Alcotest.(check (option string)) "invariants hold" None
    o.Workload.Trial.invariant_failure

(* ------------------------------------------------------------------ *)
(* Queue linearizability under crashes: producers mint values from the
   FIFO oracle, two of the four processes die mid-run, and the oracle
   then checks conservation (nothing duplicated, nothing from thin air)
   and per-producer FIFO order over everything dequeued or drained. *)

module RM_q = Workload.Schemes.RM2_debra_plus

let queue_crash_fifo ~seed () =
  let n = 4 in
  let ops = 400 in
  let group = Runtime.Group.create ~seed n in
  let heap = Memory.Heap.create () in
  let env = Reclaim.Intf.Env.create ~params group heap in
  let rm = RM_q.create env in
  let module Q = Ds.Ms_queue.Make (RM_q) in
  let q = Q.create rm ~capacity:((n * ops) + 2) in
  let oracle = Chaos.Fifo_oracle.create ~nprocs:n in
  let plan =
    Chaos.
      {
        seed;
        faults =
          [
            Crash { pid = 1; at = 2_000; kind = Anywhere };
            Crash { pid = 3; at = 2_500; kind = Anywhere };
          ];
      }
  in
  let engine = Chaos.install plan ~group ~heap in
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    if pid < 2 then
      for _ = 1 to ops do
        Q.enqueue q ctx (Chaos.Fifo_oracle.next_value oracle ~pid)
      done
    else
      for _ = 1 to ops do
        (match Q.dequeue q ctx with
        | Some v -> Chaos.Fifo_oracle.dequeued oracle ~pid v
        | None -> ());
        Runtime.Ctx.work ctx 3
      done
  in
  or_wedged (fun () ->
      ignore
        (Sim.run
           ~machine:(Machine.Config.tiny ~contexts:4 ())
           ~max_steps:20_000_000 group (Array.init n body)));
  Alcotest.(check int) "both crashes fired" 2 (Chaos.summary engine).Chaos.crashes;
  Chaos.uninstall engine;
  (* Drain the survivors' leftovers through pid 0 (alive: it finished). *)
  let ctx0 = Runtime.Group.ctx group 0 in
  let drained = ref [] in
  let rec drain () =
    match Q.dequeue q ctx0 with
    | Some v ->
        drained := v :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  match Chaos.Fifo_oracle.check oracle ~drained:!drained with
  | None -> ()
  | Some msg -> Alcotest.failf "queue oracle: %s" msg

(* ------------------------------------------------------------------ *)
(* Bounded memory: with tight allocation headroom above the prefill, a
   scheme with a working emergency-reclamation path completes, while
   [none] (which never frees) must exhaust the budget and report it. *)

module BN = Workload.Trial.Run (Workload.Schemes.RM1_none)

let oom_emergency_drain () =
  let seed = 31 in
  let headroom = 6 * 6 * params.Reclaim.Intf.Params.block_capacity in
  let o =
    or_wedged (fun () ->
        BP.trial BP.Face.bst
          ~params ~duration:400_000 ~sanitize:true ~budget:headroom
          ~max_steps:20_000_000 ~n:6 ~range:512 ~ins:50 ~del:50 ~seed ())
  in
  Alcotest.(check bool) "debra+ completes within the budget" false
    o.Workload.Trial.oom;
  Alcotest.(check (option int)) "sanitizer silent" (Some 0)
    o.Workload.Trial.violations;
  let o_none =
    or_wedged (fun () ->
        BN.trial BN.Face.bst
          ~params ~duration:400_000 ~budget:headroom ~max_steps:20_000_000
          ~n:6 ~range:512 ~ins:50 ~del:50 ~seed ())
  in
  Alcotest.(check bool) "none reports exhaustion" true o_none.Workload.Trial.oom

(* The same tight headroom for the new schemes: VBR frees blocks at retire
   time and Hyaline frees batches at every operation boundary, so neither
   needs the emergency path to stay inside the budget. *)
let oom_vbr_hyaline () =
  let seed = 31 in
  let headroom = 6 * 6 * params.Reclaim.Intf.Params.block_capacity in
  let o_vbr =
    or_wedged (fun () ->
        BV.trial BV.Face.bst
          ~params ~duration:400_000 ~sanitize:true ~budget:headroom
          ~max_steps:20_000_000 ~n:6 ~range:512 ~ins:50 ~del:50 ~seed ())
  in
  Alcotest.(check bool) "vbr completes within the budget" false
    o_vbr.Workload.Trial.oom;
  Alcotest.(check (option int)) "vbr sanitizer silent" (Some 0)
    o_vbr.Workload.Trial.violations;
  let o_hyaline =
    or_wedged (fun () ->
        BH.trial BH.Face.bst
          ~params ~duration:400_000 ~sanitize:true ~budget:headroom
          ~max_steps:20_000_000 ~n:6 ~range:512 ~ins:50 ~del:50 ~seed ())
  in
  Alcotest.(check bool) "hyaline completes within the budget" false
    o_hyaline.Workload.Trial.oom;
  Alcotest.(check (option int)) "hyaline sanitizer silent" (Some 0)
    o_hyaline.Workload.Trial.violations

(* ------------------------------------------------------------------ *)
(* Determinism: the same plan under the same schedule fires the same
   faults at the same points and yields an identical outcome. *)

let determinism ~policy () =
  let seed = 47 in
  let run () =
    let plan =
      Chaos.random_plan ~seed ~nprocs:6 [ `Crash; `Drop ]
    in
    or_wedged (fun () ->
        BP.trial BP.Face.bst
          ~params ~duration:300_000 ~sanitize:true ~chaos:plan
          ~max_steps:20_000_000 ~policy ~n:6 ~range:512 ~ins:50 ~del:50 ~seed
          ())
  in
  let a = run () and b = run () in
  Alcotest.(check int) "ops equal" a.Workload.Trial.ops b.Workload.Trial.ops;
  Alcotest.(check int) "limbo equal" a.Workload.Trial.limbo
    b.Workload.Trial.limbo;
  Alcotest.(check int) "crashed equal" a.Workload.Trial.crashed
    b.Workload.Trial.crashed;
  match (a.Workload.Trial.chaos, b.Workload.Trial.chaos) with
  | Some sa, Some sb ->
      Alcotest.(check bool) "chaos summaries equal" true (sa = sb)
  | _ -> Alcotest.fail "missing chaos summary"

(* ------------------------------------------------------------------ *)
(* Teeth of the declarations: the campaigns judge limbo with
   [Registry.limbo_verdict], so a false declaration must fail it.  One
   process stops mid-operation: parked for the rest of the trial (the
   E-stall fault) or crashed (the E-chaos one). *)

module BD = Workload.Trial.Run (Workload.Schemes.RM2_debra)

let n_stop = 6

let stopped trial ?(params = params) fault =
  let stall, chaos =
    match fault with
    | `Stall -> (Some (100_000, 700_000), None)
    | `Crash ->
        ( None,
          Some
            Chaos.
              {
                seed = 5;
                faults = [ Crash { pid = 2; at = 4_000; kind = In_operation } ];
              } )
  in
  or_wedged (fun () -> trial ~params ~stall ~chaos)

let debra_bst ~params ~stall ~chaos =
  BD.trial BD.Face.bst ~params ~duration:800_000 ?stall ?chaos
    ~max_steps:20_000_000 ~n:n_stop ~range:512 ~ins:50 ~del:50 ~seed:5 ()

let debra_plus_bst ~params ~stall ~chaos =
  BP.trial BP.Face.bst ~params ~duration:800_000 ?stall ?chaos
    ~max_steps:20_000_000 ~n:n_stop ~range:512 ~ins:50 ~del:50 ~seed:5 ()

let verdict ?(params = params) e o =
  Reclaim.Registry.limbo_verdict e ~n:n_stop params ~limbo:o.Workload.Trial.limbo

(* DEBRA re-registered with DEBRA+'s bound: its pinned limbo must fail
   the bounded verdict under both faults, while its real (unbounded)
   declaration passes. *)
let debra_declared_bounded () =
  let debra = Reclaim.Registry.find "debra" in
  let scratch =
    { debra with robustness = (Reclaim.Registry.find "debra+").robustness }
  in
  List.iter
    (fun (name, fault) ->
      let o = stopped debra_bst fault in
      Alcotest.(check (option string))
        (name ^ ": debra agrees with its declaration") None (verdict debra o);
      if verdict scratch o = None then
        Alcotest.failf "%s: debra declared bounded passed (limbo %d)" name
          o.Workload.Trial.limbo)
    [ ("stall", `Stall); ("crash", `Crash) ]

(* DEBRA+ whose suspicion threshold is never reached neutralizes nobody:
   a parked process then pins its epoch, and limbo must exceed DEBRA+'s own
   declared bound, which the real scheme keeps. *)
let debra_plus_never_neutralizing () =
  let dplus = Reclaim.Registry.find "debra+" in
  let o = stopped debra_plus_bst `Stall in
  Alcotest.(check (option string)) "debra+ within its bound" None
    (verdict dplus o);
  let mutant =
    { params with Reclaim.Intf.Params.suspect_blocks = max_int }
  in
  let o = stopped debra_plus_bst ~params:mutant `Stall in
  if verdict ~params:mutant dplus o = None then
    Alcotest.failf "a never-neutralizing debra+ kept its bound (limbo %d)"
      o.Workload.Trial.limbo

let () =
  Alcotest.run "chaos"
    [
      ("crash mid-op (debra+)", crash_cases);
      ( "crash mid-op (vbr)",
        [
          Alcotest.test_case "min-time schedule" `Quick
            (crash_mid_op_vbr ~policy:`Min_time ~seed:11);
          Alcotest.test_case "random-walk seed 3" `Quick
            (crash_mid_op_vbr ~policy:(`Random_walk 3) ~seed:3);
        ] );
      ( "crash mid-op (hyaline)",
        [
          Alcotest.test_case "min-time schedule" `Quick
            (crash_mid_op_hyaline ~policy:`Min_time ~seed:11);
          Alcotest.test_case "random-walk seed 3" `Quick
            (crash_mid_op_hyaline ~policy:(`Random_walk 3) ~seed:3);
        ] );
      ( "crash in handler",
        [ Alcotest.test_case "group-wide nth handler" `Quick crash_in_handler ]
      );
      ( "threadscan collector crash",
        [
          Alcotest.test_case "seed 5" `Quick
            (threadscan_crashed_collector ~seed:5);
          Alcotest.test_case "seed 6" `Quick
            (threadscan_crashed_collector ~seed:6);
        ] );
      ( "queue fifo oracle",
        [
          Alcotest.test_case "crash 2 of 4 procs" `Quick
            (queue_crash_fifo ~seed:13);
        ] );
      ( "declared robustness",
        [
          Alcotest.test_case "debra declared bounded fails" `Quick
            debra_declared_bounded;
          Alcotest.test_case "never-neutralizing debra+ exceeds its bound"
            `Quick debra_plus_never_neutralizing;
        ] );
      ( "bounded memory",
        [
          Alcotest.test_case "emergency drain" `Quick oom_emergency_drain;
          Alcotest.test_case "vbr and hyaline within budget" `Quick
            oom_vbr_hyaline;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "min-time" `Quick (determinism ~policy:`Min_time);
          Alcotest.test_case "random-walk" `Quick
            (determinism ~policy:(`Random_walk 9));
        ] );
    ]
