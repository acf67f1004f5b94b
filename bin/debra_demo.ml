(** A command-line playground: run one trial of a chosen data structure
    under a chosen reclamation scheme on a simulated machine, and print all
    the metrics the library collects.

    Examples:
      dune exec bin/debra_demo.exe -- --ds bst --scheme debra+ --procs 16
      dune exec bin/debra_demo.exe -- --ds skiplist --scheme stacktrack \
        --machine t4 --procs 32 --range 200000 --ins 25 --del 25
      dune exec bin/debra_demo.exe -- --ds list --scheme debra --procs 2 \
        --range 4 --duration 4000 --check-linearizability --history-out h.json
      dune exec bin/debra_demo.exe -- --ds queue --scheme debra+ --explore 2 *)

open Cmdliner

(* --chaos: parse a comma-separated fault list into chaos kind specs. *)
let parse_chaos_kinds s =
  if s = "" then []
  else
    String.split_on_char ',' s
    |> List.map (fun k ->
           match String.trim k with
           | "crash" -> `Crash
           | "handler" -> `Crash_in_handler
           | "neutralizer" -> `Crash_neutralizer
           | "drop" -> `Drop
           | "delay" -> `Delay
           | k when String.length k > 4 && String.sub k 0 4 = "oom:" ->
               `Oom (int_of_string (String.sub k 4 (String.length k - 4)))
           | k ->
               failwith
                 (Printf.sprintf
                    "unknown fault kind %S \
                     (crash|handler|neutralizer|drop|delay|oom:<headroom>)"
                    k))

(* --explore: skip the trial; run bounded-preemption systematic exploration
   of a small fixed workload for this ds/scheme cell, checking every
   explored schedule's history against the sequential spec. *)
let run_explore ~ds ~scheme ~budget ~seed =
  let ds = if ds = "hm_list" then "list" else ds in
  if not (List.mem ds Workload.Lin_harness.ds_names) then begin
    Printf.eprintf "--explore supports --ds %s\n"
      (String.concat "|" Workload.Lin_harness.ds_names);
    exit 1
  end;
  if not (List.mem scheme Workload.Lin_harness.scheme_names) then begin
    Printf.eprintf "--explore supports --scheme %s\n"
      (String.concat "|" Workload.Lin_harness.scheme_names);
    exit 1
  end;
  let cfg = { Workload.Lin_harness.default_config with seed } in
  Printf.printf
    "exploring %s x %s: %d procs x %d ops, keys [1,%d], preemption budget %d\n%!"
    ds scheme cfg.Workload.Lin_harness.nprocs
    cfg.Workload.Lin_harness.ops_per_proc cfg.Workload.Lin_harness.key_range
    budget;
  let v =
    Workload.Lin_harness.explore ~budget ~max_runs:2_000
      ~log:(fun m -> Printf.printf "  %s\n%!" m)
      ~ds ~scheme cfg
  in
  Printf.printf "%s\n" (Workload.Lin_harness.verdict_summary v);
  match v with
  | Lincheck.Explore.Pass _ -> ()
  | Lincheck.Explore.Fail _ -> exit 1

let run ds scheme variant backend procs range ins del duration machine seed
    sanitize chaos trace metrics_out explore check_lin history_out =
  if explore >= 0 then run_explore ~ds ~scheme ~budget:explore ~seed
  else
  let backend =
    match Exec.Backend.of_string backend with
    | Ok b -> b
    | Error msg -> failwith msg
  in
  let clock = Exec.Backend.clock backend in
  let machine =
    match machine with
    | "t4" -> Machine.Config.oracle_t4_1
    | "i7" -> Machine.Config.intel_i7_4770
    | other -> failwith (Printf.sprintf "unknown machine %S (i7|t4)" other)
  in
  match Workload.Schemes.find_runner ~ds ~variant ~scheme with
  | None ->
      Printf.eprintf
        "no runner for ds=%s variant=%s scheme=%s; known combinations:\n" ds
        variant scheme;
      List.iter
        (fun ((d, v), (_, names)) ->
          Printf.eprintf "  --ds %s (variant %s): %s\n" d v
            (String.concat ", " names))
        Workload.Schemes.panels;
      exit 1
  | Some r ->
      let plan =
        match parse_chaos_kinds chaos with
        | [] -> None
        | kinds -> Some (Chaos.random_plan ~seed ~nprocs:procs kinds)
      in
      let cfg =
        {
          Workload.Trial.default with
          backend;
          machine;
          duration;
          n = procs;
          range;
          ins;
          del;
          seed;
          (* Faulted runs always get the sanitizer: that is the point. *)
          sanitize = sanitize || plan <> None;
          chaos = plan;
          history = check_lin || history_out <> None;
        }
      in
      (* A telemetry recorder is attached whenever any of its outputs is
         requested (trace file, metrics file) — percentiles then come for
         free in the printout. *)
      let telemetry =
        if trace = None && metrics_out = None then None
        else
          let tr =
            Option.map
              (fun _ ->
                Telemetry.Trace.create
                  ~cycles_per_us:(Exec.Clock.cycles_per_us clock)
                  ())
              trace
          in
          Some
            (Telemetry.Recorder.create
               ~sample_every:(max 10_000 (Workload.Trial.duration cfg / 100))
               ?trace:tr
               ~cycles_per_ns:(Exec.Clock.cycles_per_ns clock)
               ~nprocs:procs ())
      in
      Option.iter
        (fun p -> Printf.printf "chaos plan     : %s\n" (Chaos.plan_to_string p))
        plan;
      let o = r.Workload.Schemes.run { cfg with telemetry } in
      let open Workload.Trial in
      Printf.printf "data structure : %s (keys [1,%d], %d%%i/%d%%d/%d%%s)\n" ds
        range ins del
        (100 - ins - del);
      Printf.printf "scheme         : %s(%s)\n" o.scheme o.pairing;
      Printf.printf "machine        : %s, %d processes\n"
        machine.Machine.Config.name procs;
      Printf.printf "backend        : %s (%.3f s wall clock)\n" o.backend
        o.wall_seconds;
      Printf.printf "operations     : %d in %d cycles -> %.2f Mops/s%s\n" o.ops
        o.virtual_time o.mops
        (if o.oom then "  [ARENA EXHAUSTED]" else "");
      Printf.printf "memory         : %s allocated, %s peak live\n"
        (Workload.Report.fmt_bytes o.bytes_claimed)
        (Workload.Report.fmt_bytes o.bytes_peak);
      Printf.printf "reclamation    : %d allocs, %d frees, %d in limbo\n"
        o.allocs o.frees o.limbo;
      Printf.printf "signals        : %d sent, %d neutralizations\n"
        o.signals_sent o.neutralized;
      (match o.chaos with
      | None -> ()
      | Some s ->
          Printf.printf
            "chaos          : %d crash(es) (%d inside a handler), %d \
             signal(s) dropped, %d delayed (%d landed late); %d process(es) \
             dead at end\n"
            s.Chaos.crashes s.Chaos.handler_crashes s.Chaos.signals_dropped
            s.Chaos.signals_delayed s.Chaos.signals_delivered_late o.crashed;
          Printf.printf "post-fault     : structure invariants %s\n"
            (match o.invariant_failure with
            | None -> "hold"
            | Some msg -> "BROKEN: " ^ msg);
          Printf.printf
            "replay         : same faults fire again with --chaos %s --seed \
             %d\n"
            chaos seed);
      (match o.violations with
      | Some v ->
          Printf.printf "sanitizer      : %d violation(s)%s\n" v
            (if v = 0 then "" else "  [SEE STDERR]")
      | None -> ());
      (match o.cache with
      | Some c ->
          Printf.printf
            "cache model    : %d L1 hits, %d LLC hits, %d memory, %d \
             invalidations\n"
            c.Machine.Cache.l1_hits c.Machine.Cache.llc_hits
            c.Machine.Cache.mem_accesses c.Machine.Cache.invalidations
      | None -> ());
      List.iter
        (fun (kind, ps) ->
          Printf.printf "latency %-7s:%s (simulated ns)\n" kind
            (String.concat ""
               (List.map
                  (fun (p, v) -> Printf.sprintf "  p%g=%d" p v)
                  ps)))
        o.latency;
      if
        not
          (Workload.Trial.save_and_check_history ~out:history_out
             ~check:check_lin o)
      then exit 1;
      (match telemetry with
      | None -> ()
      | Some rec_ -> (
          (match metrics_out with
          | None -> ()
          | Some file ->
              Telemetry.Recorder.write_metrics rec_ file;
              Printf.printf "metrics        : written to %s\n" file);
          match (trace, Telemetry.Recorder.trace rec_) with
          | Some file, Some tr ->
              Telemetry.Trace.write_file tr file;
              Printf.printf "chrome trace   : %d events written to %s%s\n"
                (Telemetry.Trace.events tr)
                file
                (let d = Telemetry.Trace.dropped tr in
                 if d > 0 then Printf.sprintf " (%d dropped)" d else "")
          | _ -> ()))

let term =
  let ds =
    Arg.(value & opt string "bst" & info [ "ds" ] ~doc:"bst | skiplist | list")
  in
  let scheme =
    Arg.(
      value & opt string "debra"
      & info [ "scheme" ]
          ~doc:
            (String.concat " | " Reclaim.Registry.names
            ^ " (availability depends on --ds and --variant; errors list \
               the known combinations)"))
  in
  let variant =
    Arg.(
      value & opt string "exp2"
      & info [ "variant" ]
          ~doc:
            "exp1 (no reuse) | exp2 (pool) | exp3 (malloc) | zoo (every \
             implemented scheme, bst only)")
  in
  let backend =
    Arg.(
      value & opt string "sim"
      & info [ "backend" ]
          ~doc:
            "sim (deterministic virtual-time simulator, the default) | \
             domains (real OCaml 5 domains on the wall clock)")
  in
  let procs = Arg.(value & opt int 8 & info [ "procs"; "p" ] ~doc:"processes") in
  let range = Arg.(value & opt int 10_000 & info [ "range" ] ~doc:"key range") in
  let ins = Arg.(value & opt int 50 & info [ "ins" ] ~doc:"insert %") in
  let del = Arg.(value & opt int 50 & info [ "del" ] ~doc:"delete %") in
  let duration =
    Arg.(value & opt int 2_000_000 & info [ "duration" ] ~doc:"virtual cycles")
  in
  let machine = Arg.(value & opt string "i7" & info [ "machine" ] ~doc:"i7 | t4") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"workload seed") in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:"run under the shadow-state SMR sanitizer (slower)")
  in
  let chaos =
    Arg.(
      value & opt string ""
      & info [ "chaos" ] ~docv:"KINDS"
          ~doc:
            "inject faults: comma-separated list of crash, handler, \
             neutralizer, drop, delay, oom:<headroom>.  The plan derives \
             deterministically from --seed; the trial runs under the \
             sanitizer and validates structure invariants afterwards")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "write a Chrome trace-event (catapult JSON) file: op spans, \
             epoch advances, neutralization signals, sweeps")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "write telemetry metrics JSON: latency histograms, limbo/epoch \
             lag/pool time series, event counters")
  in
  let explore =
    Arg.(
      value & opt int (-1)
      & info [ "explore" ] ~docv:"BUDGET"
          ~doc:
            "instead of a timed trial, systematically explore schedules of \
             a small fixed workload for this --ds/--scheme cell with at \
             most $(docv) preemptions per schedule, checking every \
             explored history for linearizability (also accepts --ds \
             queue); exits 1 with a replayable preemption schedule on a \
             violation")
  in
  let check_lin =
    Arg.(
      value & flag
      & info [ "check-linearizability" ]
          ~doc:
            "record the trial's operation history and check it against \
             the sequential set specification (WGL); feasible for small \
             trials only — shrink --duration/--procs/--range")
  in
  let history_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "history-out" ] ~docv:"FILE"
          ~doc:
            "record the trial's operation history and write it as JSON \
             to $(docv) (the format of test/histories/)")
  in
  Term.(
    const run $ ds $ scheme $ variant $ backend $ procs $ range $ ins $ del
    $ duration $ machine $ seed $ sanitize $ chaos $ trace $ metrics_out
    $ explore $ check_lin $ history_out)

let () =
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "debra_demo"
             ~doc:"Run one simulated trial of a reclamation scheme")
          term))
