(** Benchmark harness entry point.

    One argument per paper artifact:
    - exp1     Fig. 8 (left): overhead of reclamation, no reuse
    - exp2     Fig. 8 (right): reclaimed records reused through the pool
    - exp2-t4  Fig. 9 (left): Experiment 2 on the 64-context NUMA model
    - exp3     Fig. 10: malloc-style allocator
    - memfig   Fig. 9 (right): memory allocated + neutralization counts
    - schemes  Fig. 2: summary table of reclamation schemes
    - summary  §7/§8 scalar claims, paper vs measured, read from the
               exp1 / exp2 / memfig trials (run first when not asked for)
    - ablate   DEBRA design-choice ablations (§4)
    - micro    Bechamel microbenchmarks of the Record Manager primitives
    - e-stall  stalled-process campaign: limbo time series, DEBRA vs DEBRA+
    - e-chaos  fault-injection campaign: crashes, signal loss, bounded memory
    - all      every experiment above
    - kv       open-loop sharded KV store with SLO verdicts (BENCH_KV.json)
    - e-overload  chaos under load behind a limbo watermark
    - e-scale  context-count scaling campaign (64 -> 256 -> 1024): per-op
               cost divergence HP vs DEBRA/DEBRA+, plus scheduler and
               explorer throughput baselines (BENCH_SIM.json)
    - sweep    VBR / Hyaline vs DEBRA+ on two structures and both
               backends (BENCH_SWEEP.json)

    [--full] uses the paper-scale key ranges and thread counts (slow); the
    default "quick" scale shrinks the big key range and the grid.
    [--json] also writes one BENCH_<experiment>.json per experiment, in
    the row shape of bench/row.ml, the harness's only report format;
    [--schemes LIST] runs a subset of kv's or e-overload's schemes;
    [--trace FILE] writes e-stall's DEBRA+ Chrome trace;
    [--chaos-seed N] replays one e-chaos seed instead of the sweep.

    Linearizability plumbing (lib/lincheck):
    [--check-linearizability] records and WGL-checks each trial's
    history (bench-scale histories usually exceed the checker budget —
    it says so honestly); [--history-out FILE] dumps the last trial's
    history as JSON.  The systematic-exploration matrix is
    test/lincheck_matrix.exe ([dune build @lincheck-matrix]). *)

(* (name, part of "all", run), in the order "all" runs them. *)
let runs =
  [
    ("schemes", true, fun ~scale:_ -> Fig2.print ());
    ("exp1", true, Experiments.exp1);
    ("exp2", true, Experiments.exp2);
    ("exp2-t4", true, Experiments.exp2_t4);
    ("exp3", true, Experiments.exp3);
    ("memfig", true, Experiments.memfig);
    ("summary", true, Summary.run);
    ("ablate", true, Experiments.ablate);
    ("micro", true, fun ~scale:_ -> Micro.run ());
    ("e-stall", true, Stall.run);
    ("e-chaos", true, E_chaos.run);
    ("kv", false, Kv_bench.run);
    ("e-overload", false, E_overload.run);
    ("e-scale", false, E_scale.run);
    ("sweep", false, Sweep.run);
  ]

(* Schedule summary's inputs ahead of it, and every experiment once. *)
let with_summary_inputs experiments =
  let add acc e = if List.mem e acc then acc else acc @ [ e ] in
  List.fold_left
    (fun acc e ->
      if e = "summary" then add (List.fold_left add acc Summary.inputs) e
      else add acc e)
    [] experiments

let run_one ~scale name =
  let _, _, run = List.find (fun (n, _, _) -> n = name) runs in
  run ~scale

(* With --json, each experiment's rows (Row.add) are drained into
   BENCH_<experiment>.json; an experiment that only runs as summary's
   input ([write] false) writes no file. *)
let run_one_json ~scale ~write name =
  run_one ~scale name;
  if !Row.enabled then
    if not write then Row.clear ()
    else begin
      (* The kv campaign's baseline is checked in as BENCH_KV.json, the
         e-scale campaign's as BENCH_SIM.json, and the VBR/Hyaline
         sweep's as BENCH_SWEEP.json. *)
      let file =
        Printf.sprintf "BENCH_%s.json"
          (match name with
          | "kv" -> "KV"
          | "e-scale" -> "SIM"
          | "sweep" -> "SWEEP"
          | n -> n)
      in
      Row.write ~experiment:name file;
      Printf.printf "json results written to %s\n%!" file
    end

let main experiments backend full sanitize json trace chaos_seed
    check_lin history_out
    (shards, arrival, rate, requests, nkeys, slo, procs, explore_free)
    overload_requests schemes =
  Kv_bench.shards := shards;
  Kv_bench.arrival_name := arrival;
  Kv_bench.arrival_rate := rate;
  Kv_bench.requests := requests;
  Kv_bench.nkeys := nkeys;
  Kv_bench.slo_spec := slo;
  Kv_bench.nprocs := procs;
  Kv_bench.explore_free := explore_free;
  E_overload.requests := overload_requests;
  Kv_cell.filter := schemes;
  Experiments.backend := backend;
  Experiments.sanitize := sanitize;
  Row.enabled := json;
  Experiments.check_lin := check_lin;
  Experiments.history_out := history_out;
  Stall.trace_file := trace;
  E_chaos.replay_seed := chaos_seed;
  E_overload.replay_seed := chaos_seed;
  let scale =
    if full then Experiments.full_scale else Experiments.quick_scale
  in
  let experiments = if experiments = [] then [ "all" ] else experiments in
  let experiments =
    if List.mem "all" experiments then
      List.filter_map (fun (n, all, _) -> if all then Some n else None) runs
    else experiments
  in
  Printf.printf
    "DEBRA/DEBRA+ reproduction benchmark harness (%s scale, %s backend)\n\
     machine models: %s | %s\n\
     %!"
    (if full then "full" else "quick")
    (Exec.Backend.to_string backend)
    Machine.Config.intel_i7_4770.Machine.Config.name
    Machine.Config.oracle_t4_1.Machine.Config.name;
  List.iter
    (fun e -> run_one_json ~scale ~write:(List.mem e experiments) e)
    (with_summary_inputs experiments);
  if !Experiments.lin_failures > 0 then begin
    Printf.eprintf "linearizability: %d trial(s) rejected\n"
      !Experiments.lin_failures;
    exit 1
  end;
  if !Stall.failures > 0 then begin
    Printf.eprintf "e-stall: %d scheme(s) disagreed with their declaration\n"
      !Stall.failures;
    exit 1
  end;
  if !E_chaos.failures > 0 then begin
    Printf.eprintf "e-chaos: %d configuration(s) failed\n" !E_chaos.failures;
    exit 1
  end;
  if !E_overload.failures > 0 then begin
    Printf.eprintf "e-overload: %d cell(s) missed their expectation\n"
      !E_overload.failures;
    exit 1
  end;
  if !E_scale.failures > 0 then begin
    Printf.eprintf "e-scale: %d structure(s) missed their divergence check\n"
      !E_scale.failures;
    exit 1
  end

open Cmdliner

let experiments_arg =
  let names = List.map (fun (n, _, _) -> n) runs @ [ "all" ] in
  let doc =
    Printf.sprintf "Experiments to run: %s." (String.concat ", " names)
  in
  Arg.(
    value
    & pos_all (enum (List.map (fun n -> (n, n)) names)) []
    & info [] ~docv:"EXPERIMENT" ~doc)

let backend_arg =
  let parse s =
    match Exec.Backend.of_string s with
    | Ok b -> Ok b
    | Error msg -> Error (`Msg msg)
  in
  let print fmt b = Format.pp_print_string fmt (Exec.Backend.to_string b) in
  let backend_conv = Arg.conv (parse, print) in
  let doc =
    "Execution backend: $(b,sim) (deterministic virtual-time simulator, the \
     default; all published numbers) or $(b,domains) (real OCaml 5 domains \
     on the wall clock; non-deterministic, no cache model, sim-only \
     features degrade gracefully)."
  in
  Arg.(value & opt backend_conv `Sim & info [ "backend" ] ~docv:"BACKEND" ~doc)

let full_arg =
  let doc = "Run at paper scale (large key ranges, dense thread grid)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let sanitize_arg =
  let doc =
    "Run every trial under the shadow-state SMR sanitizer (lib/sanitizer): \
     violations are reported on stderr and flagged !SAN in the tables.  \
     Slows trials down and perturbs timing; all published numbers are \
     measured with this off."
  in
  Arg.(value & flag & info [ "sanitize" ] ~doc)

let json_arg =
  let doc =
    "Attach a telemetry recorder to every trial and write one \
     BENCH_<experiment>.json per experiment: its key fields, its declared \
     metrics (unit, direction, exactness) and one row per trial or cell."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace-event (catapult JSON) file for the e-stall \
     experiment's DEBRA+ run; load it in chrome://tracing or Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let chaos_seed_arg =
  let doc =
    "Replay the e-chaos campaign with this single plan seed (printed by a \
     failing run) instead of the default seed sweep."
  in
  Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~docv:"SEED" ~doc)

let check_lin_arg =
  let doc =
    "Record every trial's operation history and check it against the \
     sequential set specification (WGL checker).  Exponential in \
     concurrency: bench-scale histories typically exceed the checker's \
     node budget, which is reported per trial; intended for shrunken \
     runs.  Exits 1 if any checked trial is non-linearizable."
  in
  Arg.(value & flag & info [ "check-linearizability" ] ~doc)

let history_out_arg =
  let doc =
    "Record operation histories and write the last trial's history as \
     JSON to $(docv) (the format of test/histories/)."
  in
  Arg.(
    value & opt (some string) None & info [ "history-out" ] ~docv:"FILE" ~doc)

(* Flags of the kv experiment (the open-loop E-kv campaign). *)
let kv_args =
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:"kv: number of store shards (one record manager each).")
  in
  let arrival =
    Arg.(
      value & opt string "burst"
      & info [ "arrival" ] ~docv:"PATTERN"
          ~doc:
            "kv: open-loop arrival pattern: $(b,poisson), $(b,burst) (8x \
             peaks) or $(b,burst:<peak-multiplier>).")
  in
  let rate =
    Arg.(
      value & opt float 400_000.0
      & info [ "arrival-rate" ] ~docv:"R"
          ~doc:
            "kv: base arrival rate in requests per second of the backend \
             clock.")
  in
  let requests =
    Arg.(
      value & opt int 0
      & info [ "requests" ] ~docv:"N"
          ~doc:
            "kv: total requests per scheme (0 = 20000, or 100000 with \
             --full).")
  in
  let nkeys =
    Arg.(
      value & opt int 4096
      & info [ "nkeys" ] ~docv:"N" ~doc:"kv: size of the key universe.")
  in
  let slo =
    Arg.(
      value & opt string "p99=25000,p999=120000"
      & info [ "slo" ] ~docv:"SPEC"
          ~doc:
            "kv: latency budget per percentile in ns, e.g. \
             $(b,p50=2000,p99=25000,p999=120000); empty = no budget.")
  in
  let procs =
    Arg.(
      value & opt int 4
      & info [ "kv-procs" ] ~docv:"N" ~doc:"kv: worker processes.")
  in
  let explore_free =
    Arg.(
      value & flag
      & info [ "explore-free" ]
          ~doc:
            "kv: run every sim cell twice and fail unless the two JSON \
             rows are byte-identical (deterministic-replay self-check; \
             skipped on the domains backend).")
  in
  Term.(
    const (fun a b c d e f g h -> (a, b, c, d, e, f, g, h))
    $ shards $ arrival $ rate $ requests $ nkeys $ slo $ procs $ explore_free)

let overload_requests_arg =
  Arg.(
    value & opt int 0
    & info [ "overload-requests" ] ~docv:"N"
        ~doc:"e-overload: requests per cell (0 = 6000, or 20000 with --full).")

let schemes_arg =
  let names l = String.concat "," l in
  Arg.(
    value & opt string ""
    & info [ "schemes" ] ~docv:"LIST"
        ~doc:
          (Printf.sprintf
             "kv / e-overload: comma-separated subset of the campaign's \
              schemes to run (default all; kv: %s; e-overload: %s)."
             (names Kv_bench.scheme_names)
             (names (List.map (fun (s, _, _) -> s) E_overload.schemes))))

let cmd =
  let doc = "Reproduce the tables and figures of the DEBRA/DEBRA+ paper" in
  Cmd.v
    (Cmd.info "debra-bench" ~doc)
    Term.(
      const main $ experiments_arg $ backend_arg $ full_arg $ sanitize_arg
      $ json_arg $ trace_arg $ chaos_seed_arg $ check_lin_arg
      $ history_out_arg $ kv_args
      $ overload_requests_arg $ schemes_arg)

let () = exit (Cmd.eval cmd)
