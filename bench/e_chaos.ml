(** E-crash / E-oom: the fault-injection campaign (DESIGN.md §9,
    EXPERIMENTS.md).

    Sweeps schemes × structures × fault kinds, every trial under the
    shadow-state sanitizer with post-fault invariant validation, and
    checks the graceful-degradation contract of each scheme:

    - {e crash faults} (a process dies mid-operation, inside its signal
      handler, or right after neutralizing): survivors must finish the
      workload, the structure must pass its invariant walk, the sanitizer
      must stay silent — and the limbo consequences must match each
      scheme's declared robustness ({!Reclaim.Intf.Robustness}): DEBRA+
      neutralizes the dead process (ESRCH counts as permanently quiescent)
      and keeps limbo within its O(mn²) bound, the per-record schemes
      within theirs, while EBR/QSBR/DEBRA can never advance past it and
      grow without bound;
    - {e signal faults} (dropped / delayed deliveries): DEBRA+'s
      retry-with-backoff path must still neutralize, keeping limbo
      bounded;
    - {e bounded memory} (E-oom): with allocation headroom above the
      prefilled live set capped at a third of the paper's bound, schemes
      with a working emergency-reclamation path (DEBRA, DEBRA+, HP ...)
      must complete the trial — their pipeline inventory stays within the
      bound — while a scheme that never frees ([none], whose discipline
      tracks no limbo) must exhaust the headroom and report it cleanly.

    Every trial's plan derives from one printed seed; a failing
    configuration prints the exact replay command. *)

open Workload.Schemes

(* Set by bench/main.ml's --chaos-seed flag: replay one seed instead of the
   default sweep. *)
let replay_seed : int option ref = ref None

(* CI gate: number of verdict failures; main.ml exits non-zero if any. *)
let failures = ref 0

let nprocs = 8
let default_seeds = [ 42 ]

(* How many times a cell's fault fired: crashes for the crash kinds,
   dropped or delayed deliveries for the signal kinds, refused allocations
   for the memory cap.  A cell whose count is 0 tested nothing. *)
let fired fault (s : Chaos.summary) =
  match fault with
  | `Crash | `Crash_in_handler | `Crash_neutralizer -> s.Chaos.crashes
  | `Drop -> s.Chaos.signals_dropped
  | `Delay -> s.Chaos.signals_delayed
  | `Oom _ -> s.Chaos.budget_refusals

(* [judge_limbo]: what the scheme's declaration says of its limbo. *)
let check_verdict ~expect_oom ~expect_crash ~judge_limbo
    (o : Workload.Trial.outcome) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (match o.Workload.Trial.violations with
  | Some v when v > 0 -> err "%d sanitizer violation(s)" v
  | _ -> ());
  (match o.Workload.Trial.invariant_failure with
  | Some msg -> err "structure invariant broken: %s" msg
  | None -> ());
  if expect_oom && not o.Workload.Trial.oom then
    err "expected exhaustion, but the trial completed";
  if (not expect_oom) && o.Workload.Trial.oom then
    err "allocation failed (emergency reclamation did not free enough)";
  if expect_crash && o.Workload.Trial.crashed = 0 then
    err "crash fault never fired";
  Option.iter (err "%s") (judge_limbo o.Workload.Trial.limbo);
  List.rev !errs

(* One row per cell: the trial's measurements (no wall time, so the row
   is byte-stable on the simulator), the fault and what it did, the
   verdict, and the campaign's constants. *)
let table () =
  let m unit = Row.metric ~exact:(!Experiments.backend = `Sim) unit in
  {
    Row.key = [ "structure"; "scheme"; "fault"; "seed"; "backend" ];
    metrics =
      [
        ("nprocs", m "processes");
        ("limbo_bound", m "records");
        ("pass", m "bool");
        ("wedged", m "bool");
        ("fired", m "count");
        ("crashed", m "processes");
      ]
      @ Experiments.trial_metrics ();
  }

(* The chaos engine's tallies, nested in a cell's row. *)
let chaos_json (s : Chaos.summary) =
  Telemetry.Json.(
    Obj
      [
        ("crashes", Int s.Chaos.crashes);
        ("handler_crashes", Int s.Chaos.handler_crashes);
        ("signals_dropped", Int s.Chaos.signals_dropped);
        ("signals_delayed", Int s.Chaos.signals_delayed);
        ("signals_delivered_late", Int s.Chaos.signals_delivered_late);
      ])

let fault_name = function
  | `Crash -> "crash"
  | `Crash_in_handler -> "crash-in-handler"
  | `Crash_neutralizer -> "crash-neutralizer"
  | `Drop -> "drop-signals"
  | `Delay -> "delay-signals"
  | `Oom _ -> "oom"

let run ~scale =
  let duration = max scale.Experiments.duration 1_200_000 in
  let n = nprocs in
  let range = scale.Experiments.small_range in
  let block_capacity = 64 in
  let params =
    {
      Reclaim.Intf.Params.default with
      Reclaim.Intf.Params.block_capacity;
      incr_thresh = n;
    }
  in
  let bound = Reclaim.Registry.paper_bound ~n params in
  let seeds =
    match !replay_seed with Some s -> [ s ] | None -> default_seeds
  in
  Printf.printf
    "\n\
     ===== E-crash / E-oom: fault-injection campaign =====\n\
     %d processes, keys [1,%d], 50i-50d, %d cycles; sanitizer + post-fault \
     invariant checks on every trial.\n\
     Limbo bound (m*n^2*B): %d records.  Seeds: %s.\n"
    n range duration bound
    (String.concat ", " (List.map string_of_int seeds));
  (* The printed verdict table, newest first. *)
  let rows = ref [] and passed = ref 0 in
  (* One faulted trial of [scheme].  Its expectations come from the
     scheme's declarations: with [judged], its limbo is held to its
     declared robustness; under the memory cap, only a scheme that never
     frees (its discipline tracks no limbo) may exhaust the headroom. *)
  let trial ?(params = params) ~structure ~scheme ~fault ~seed ~judged () =
    let e = Reclaim.Registry.find scheme in
    let kind = [ fault ] in
    let plan = Chaos.random_plan ~seed ~nprocs:n kind in
    let expect_crash, expect_oom =
      match fault with
      | `Crash | `Crash_in_handler | `Crash_neutralizer -> (true, false)
      | `Oom _ -> (false, not e.discipline.Memory.Discipline.track_limbo)
      | `Drop | `Delay -> (false, false)
    in
    let judge_limbo limbo =
      if judged then Reclaim.Registry.limbo_verdict e ~n params ~limbo
      else None
    in
    let cfg =
      {
        (Experiments.base_cfg ~params
           ~scale:{ scale with Experiments.duration }
           ~range ~ins:50 ~del:50 n)
        with
        Workload.Trial.sanitize = true;
        chaos = Some plan;
        max_steps = Some 40_000_000;
        history = false;
        seed;
      }
    in
    let fname = fault_name fault in
    let outcome, errors =
      match (runner ~ds:structure scheme).run cfg with
      | o -> (Some o, check_verdict ~expect_oom ~expect_crash ~judge_limbo o)
      | exception Sim.Stuck info ->
          ( None,
            [
              Printf.sprintf "wedged: %s (after %d steps)" info.Sim.s_reason
                info.Sim.s_steps;
            ] )
    in
    let open Telemetry.Json in
    Row.add (table ())
      ([
         ("structure", String structure);
         ("scheme", String scheme);
         ("fault", String fname);
         ("seed", Int seed);
         ("backend", String (Exec.Backend.to_string !Experiments.backend));
         ("nprocs", Int n);
         ("limbo_bound", Int bound);
         ("pass", Bool (errors = []));
         ("errors", List (List.map (fun e -> String e) errors));
         ("wedged", Bool (outcome = None));
       ]
      @
      match outcome with
      | None -> []
      | Some o ->
          Experiments.trial_fields o
          @ ("crashed", Int o.Workload.Trial.crashed)
            :: Option.fold ~none:[]
                 ~some:(fun s ->
                   [ ("fired", Int (fired fault s)); ("chaos", chaos_json s) ])
                 o.Workload.Trial.chaos);
    let show f = Option.fold ~none:"-" ~some:f outcome in
    rows :=
      [
        structure;
        scheme;
        fname;
        string_of_int seed;
        (match outcome with
        | None -> "WEDGED"
        | Some o when o.Workload.Trial.oom -> "oom"
        | Some o -> Printf.sprintf "%d ops" o.Workload.Trial.ops);
        show (fun o -> string_of_int o.Workload.Trial.crashed);
        show (fun o -> string_of_int o.Workload.Trial.limbo);
        (if errors = [] then "pass" else String.concat "; " errors);
      ]
      :: !rows;
    if errors = [] then incr passed
    else begin
      incr failures;
      Printf.printf "FAIL %-8s %-10s %-16s seed %d\n" structure scheme fname
        seed;
      List.iter (fun e -> Printf.printf "       %s\n" e) errors;
      Printf.printf "       plan: %s\n" (Chaos.plan_to_string plan);
      Printf.printf "       replay: debra-bench e-chaos --chaos-seed %d\n" seed
    end
  in
  (* --- E-crash: one process dies mid-operation. ------------------- *)
  List.iter
    (fun seed ->
      (* Epoch schemes without neutralization: the dead non-quiescent
         process pins the epoch/qpoint forever; limbo must blow through
         the growth floor.  DEBRA+ gets ESRCH, counts the corpse as
         permanently quiescent, and stays bounded; the per-record schemes
         (a corpse pins at most its own protections), VBR (versions, not
         grace periods, protect readers) and Hyaline (a corpse is charged
         no later batch) stay within their own bounds. *)
      List.iter
        (fun scheme ->
          trial ~structure:"bst" ~scheme ~fault:`Crash ~seed ~judged:true ())
        [ "ebr"; "qsbr"; "debra"; "debra+"; "hp"; "rc"; "vbr"; "hyaline" ];
      (* Same story on the list structure.  The list's op rate at this
         scale retires too few records to judge unbounded growth; these
         trials check crash-safety (invariants, sanitizer, survivors
         finishing) on a second structure, and a bounded declaration is
         still asserted. *)
      List.iter
        (fun scheme ->
          trial ~structure:"list" ~scheme ~fault:`Crash ~seed
            ~judged:
              (Reclaim.Intf.Robustness.bounded
                 (Reclaim.Registry.find scheme).robustness)
            ())
        [ "debra"; "debra+" ];
      (* DEBRA+-specific fault kinds: die inside the signal handler, die
         right after neutralizing, and unreliable signal delivery. *)
      List.iter
        (fun fault ->
          trial ~structure:"bst" ~scheme:"debra+" ~fault ~seed ~judged:true ())
        [ `Crash_in_handler; `Crash_neutralizer; `Drop; `Delay ])
    seeds;
  (* --- E-oom: bounded memory. ------------------------------------- *)
  (* Tight headroom above the prefill's claims: n^2 * B records, a third
     of the paper's bound.  Local pool bags are kept small
     ([pool_cap_blocks = 2]) so free records spill to the shared bag
     instead of being hoarded per-process — the configuration a
     memory-constrained deployment would run.  A reclaiming scheme's
     inventory (young limbo + pool stock) is recyclable: when the cap
     binds, emergency reclamation drains limbo back into the pools and
     the trial completes — VBR's retire frees blocks immediately and
     Hyaline's batches drain at session boundaries.  [none] allocates
     fresh records for every operation and must exhaust the headroom
     within a few thousand operations. *)
  let oom_headroom = n * n * block_capacity in
  let oom_params = { params with Reclaim.Intf.Params.pool_cap_blocks = 2 } in
  List.iter
    (fun seed ->
      List.iter
        (fun scheme ->
          trial ~params:oom_params ~structure:"bst" ~scheme
            ~fault:(`Oom oom_headroom) ~seed ~judged:false ())
        [ "none"; "debra"; "debra+"; "hp"; "vbr"; "hyaline" ])
    seeds;
  let rows = List.rev !rows in
  Workload.Report.table ~title:"E-crash / E-oom: fault campaign verdicts"
    ~header:
      [ "structure"; "scheme"; "fault"; "seed"; "result"; "crashed";
        "limbo"; "verdict" ]
    ~rows;
  Printf.printf "%d/%d chaos configurations passed.\n%!" !passed
    (List.length rows)
