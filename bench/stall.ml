(** E-stall: the stalled-process campaign (paper §2/§5 motivation).

    One process — the highest pid — is parked mid-operation (non-quiescent)
    at 20% of the trial and never returns.  Epoch-based schemes without
    neutralization (EBR, DEBRA) can no longer advance their epoch, so every
    retired record accumulates in limbo for the rest of the trial: the limbo
    time series grows without bound.  DEBRA+ suspects the stalled process,
    neutralizes it with a signal and advances past it, so its limbo
    plateaus below the O(mn²) bound the paper proves (as DEBRA+ declares
    it, {!Reclaim.Debra_plus.robustness}).  Each scheme's peak is judged
    against its own declaration; a disagreement fails the campaign.

    The telemetry recorder supplies the evidence: per-process limbo gauges
    sampled on virtual-time ticks, rendered as a time-series table and an
    ASCII figure, plus latency percentiles per scheme.  Each scheme's row
    carries its peak, final and bound limbo, its verdict and the full
    sampled series (the recorder's metrics document); with [--trace] the
    DEBRA+ run's Chrome trace (op spans, epoch advances, neutralization
    signals, sweeps) is written for chrome://tracing. *)

open Workload.Schemes

(* Set by bench/main.ml's --trace flag. *)
let trace_file : string option ref = ref None

(* CI gate: schemes whose limbo disagreed with their declaration; main.ml
   exits non-zero if any. *)
let failures = ref 0

let nprocs = 8

let scheme_runners () =
  List.map (runner ~ds:"bst") [ "ebr"; "debra"; "debra+" ]

(* One row per scheme: the trial, the stall, the limbo verdict, and the
   recorder's sampled series nested under "telemetry". *)
let table () =
  let m unit = Row.metric ~exact:(!Experiments.backend = `Sim) unit in
  {
    Row.key = [ "scheme"; "backend"; "nprocs" ];
    metrics =
      Experiments.trial_metrics ()
      @ [
          ("stall_at", m "cycles");
          ("peak_limbo", m "records");
          ("final_limbo", m "records");
          ("limbo_bound", m "records");
          ("pass", m "bool");
        ];
  }

let run ~scale =
  let range = scale.Experiments.small_range in
  let n = nprocs in
  let scale =
    {
      scale with
      Experiments.duration = max (2 * scale.Experiments.duration) 2_400_000;
    }
  in
  (* The stall and the sampling follow the length the trial runs for,
     which the domains backend floors. *)
  let duration =
    Workload.Trial.duration
      (Experiments.base_cfg ~scale ~range ~ins:50 ~del:50 n)
  in
  let stall_at = duration / 5 in
  (* Parked until the end of the trial: the victim never comes back. *)
  let stall_cycles = duration - stall_at in
  (* Small blocks and an aggressive epoch cadence: at bench time scales the
     default throttling (incr_thresh = 100) advances the epoch only a
     handful of times per trial, which would hide the stall's effect behind
     ordinary steady-state backlog.  The paper's long trials amortize the
     same cadence; here we shorten the grace period instead. *)
  let block_capacity = 64 in
  let params =
    {
      Reclaim.Intf.Params.default with
      Reclaim.Intf.Params.block_capacity;
      incr_thresh = n;
    }
  in
  let bound = Reclaim.Registry.paper_bound ~n params in
  let sample_every = max 10_000 (duration / 100) in
  let clock = Exec.Backend.clock !Experiments.backend in
  let cycles_per_ns = Exec.Clock.cycles_per_ns clock in
  let cycles_per_us = Exec.Clock.cycles_per_us clock in
  Printf.printf
    "\n\
     ===== E-stall: stalled-process campaign =====\n\
     BST keys [0,%d), 50i-50d, %d processes; process %d parks mid-operation \
     at t=%d and never returns.\n\
     Limbo bound (m*n^2*B = 3*%d^2*%d): %d records.\n"
    range n (n - 1) stall_at n block_capacity bound;
  let results =
    List.map
      (fun r ->
        let trace =
          (* One Chrome trace is enough; DEBRA+ is the interesting run
             (neutralization signals + epoch advances past the victim). *)
          if r.rname = "debra+" && !trace_file <> None then
            Some (Telemetry.Trace.create ~cycles_per_us ())
          else None
        in
        let rec_ =
          Telemetry.Recorder.create ~sample_every ?trace ~cycles_per_ns
            ~nprocs:n ()
        in
        let cfg =
          {
            (Experiments.base_cfg ~params ~scale ~range ~ins:50 ~del:50 n) with
            Workload.Trial.telemetry = Some rec_;
            stall = Some (stall_at, stall_cycles);
          }
        in
        let o = r.run cfg in
        Experiments.check_history o;
        (r.rname, rec_, o))
      (scheme_runners ())
  in
  (* Limbo time series, one row per sample epoch (thinned to ~12 rows). *)
  let series =
    List.map
      (fun (name, rec_, _) ->
        (name, Telemetry.Recorder.series_total rec_ "limbo"))
      results
  in
  let times = match series with (_, s) :: _ -> List.map fst s | [] -> [] in
  let nsamples = List.length times in
  let step = max 1 (nsamples / 12) in
  let rows =
    List.filteri (fun i _ -> i mod step = 0 || i = nsamples - 1) times
    |> List.map (fun t ->
           string_of_int t
           :: List.map
                (fun (_, s) ->
                  match List.assoc_opt t s with
                  | Some v -> string_of_int v
                  | None -> "-")
                series)
  in
  Workload.Report.table
    ~title:
      (Printf.sprintf
         "E-stall: limbo population over virtual time (stall at t=%d)"
         stall_at)
    ~header:("t (cycles)" :: List.map fst series)
    ~rows;
  Workload.Report.chart ~xlabel:"(virtual time, cycles)"
    ~title:"E-stall: records in limbo over time — figure"
    ~series:
      (List.map
         (fun (name, s) ->
           (name, List.map (fun (t, v) -> (t, float_of_int v)) s))
         series)
    ();
  (* Peak-vs-bound verdict per scheme. *)
  let peak s = List.fold_left (fun acc (_, v) -> max acc v) 0 s in
  let final s = match List.rev s with (_, v) :: _ -> v | [] -> 0 in
  List.iter2
    (fun (name, s) (_, rec_, o) ->
      Printf.printf "%-8s peak limbo %7d, final %7d  %s (bound %d)\n" name
        (peak s) (final s)
        (if peak s <= bound then "<= bound" else "EXCEEDS bound")
        bound;
      let errors =
        Option.to_list
          (Reclaim.Registry.(limbo_verdict (find name)) ~n params
             ~limbo:(peak s))
      in
      failures := !failures + List.length errors;
      List.iter (Printf.printf "FAIL e-stall %s: %s\n" name) errors;
      let open Telemetry.Json in
      Row.add (table ())
        ([
           ("scheme", String name);
           ("backend", String o.Workload.Trial.backend);
           ("nprocs", Int n);
         ]
        @ Experiments.trial_fields o
        @ [
            ("stall_at", Int stall_at);
            ("peak_limbo", Int (peak s));
            ("final_limbo", Int (final s));
            ("limbo_bound", Int bound);
            ("pass", Bool (errors = []));
            ("errors", List (List.map (fun e -> String e) errors));
            ("telemetry", Telemetry.Recorder.metrics_json rec_);
          ]))
    series results;
  (* Latency percentiles: the stall barely moves the epoch schemes' op
     latency — the damage is memory, not speed. *)
  let header =
    "scheme"
    :: List.concat_map
         (fun k -> [ k ^ " p50"; k ^ " p99"; k ^ " p999" ])
         [ "insert"; "delete"; "search" ]
  in
  let rows =
    List.map
      (fun (name, _, o) ->
        name
        :: List.concat_map
             (fun kind ->
               match List.assoc_opt kind o.Workload.Trial.latency with
               | None -> [ "-"; "-"; "-" ]
               | Some ps ->
                   List.filter_map
                     (fun (p, v) ->
                       if List.mem p [ 50.0; 99.0; 99.9 ] then
                         Some (string_of_int v)
                       else None)
                     ps)
             [ "insert"; "delete"; "search" ])
      results
  in
  Workload.Report.table
    ~title:"E-stall: operation latency percentiles (simulated ns)" ~header
    ~rows;
  match !trace_file with
  | None -> ()
  | Some file ->
      List.iter
        (fun (name, rec_, _) ->
          match Telemetry.Recorder.trace rec_ with
          | Some tr when name = "debra+" ->
              Telemetry.Trace.write_file tr file;
              Printf.printf "chrome trace (debra+) written to %s\n" file
          | _ -> ())
        results
