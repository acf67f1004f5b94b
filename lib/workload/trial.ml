(** Trial runner: prefill a set data structure to half its key range, run a
    timed mixed workload, and collect the metrics the paper reports
    (throughput, memory allocated, limbo population, neutralization counts).

    Mirrors the paper's §7 methodology: uniformly random keys, operation
    mixes written "xi-yd" (x% insert, y% delete, rest search), prefill to
    half the key range, fixed-duration trials.

    Pass [?history] (a {!Lincheck.History.recorder}) to log every
    operation — prefill included — as an invocation/response history for
    the linearizability checker; sound on both backends (see
    Lincheck.History on the two clocks).

    Execution is backend-polymorphic: the pipeline is written once against
    {!Exec.Intf.RUNNER} and runs on the deterministic virtual-time
    simulator (the default, and the mode every published number uses) or on
    real OCaml 5 domains ([~exec:(Exec.Domain_exec.make ())]).  Durations
    and reported times are in cycles of the backend's {!Exec.Clock}; on a
    non-deterministic backend the sim-only features degrade gracefully
    (see DESIGN.md §10): the sanitizer is disabled, chaos plans are
    restricted to {!Chaos.degrade}'s subset, and the telemetry event
    counters are not subscribed. *)

type outcome = {
  scheme : string;
  backend : string;  (** executor that ran the trial: "sim" or "domains" *)
  nprocs : int;
  ops : int;
  virtual_time : int;
      (** elapsed time in backend-clock cycles: virtual time under the
          simulator, scaled wall-clock under domains *)
  wall_seconds : float;  (** real host time the trial took *)
  mops : float;  (** million operations per backend-clock second *)
  bytes_claimed : int;  (** total allocated for records, incl. prefill *)
  bytes_claimed_trial : int;
      (** bump-pointer movement during the timed trial only — the paper's
          Fig. 9 (right) metric *)
  bytes_peak : int;
  limbo : int;  (** records awaiting reclamation at trial end *)
  neutralized : int;
  signals_sent : int;
  allocs : int;
  frees : int;
  oom : bool;  (** the arena filled up: the scheme failed to reclaim *)
  crashed : int;  (** processes that terminated via an injected crash *)
  chaos : Chaos.summary option;
      (** fault-injection summary; [None] when the trial ran without a
          chaos plan *)
  invariant_failure : string option;
      (** post-fault structure validation: [None] = the survivors' final
          structure passed its invariant walk (or validation was off) *)
  cache : Machine.Cache.stats option;
  violations : int option;
      (** sanitizer violation count; [None] when the trial ran without the
          sanitizer (the default — see EXPERIMENTS.md: all reported numbers
          are sanitizer-off) *)
  latency : (string * (float * int) list) list;
      (** per-operation-kind latency percentiles in backend-clock ns, as
          [(percentile, value)] rows; empty when the trial ran without a
          telemetry recorder *)
}

module Run (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  (* The uniform face of a set data structure instantiated with RM, shared
     with the bench scheme matrix (see Set_adapter). *)
  module Face = Set_adapter.Face (RM)

  module type SET = Face.SET

  let trial (module S : SET) ?(machine = Machine.Config.intel_i7_4770)
      ?(params = Reclaim.Intf.Params.default) ?(duration = 2_000_000)
      ?(capacity = 0) ?(sanitize = false) ?telemetry ?history ?stall ?chaos
      ?(budget = -1) ?max_steps ?policy ?exec ~n ~range ~ins ~del ~seed () =
    (* Resolve the execution backend.  The default is the simulator built
       from the per-trial knobs, which keeps every existing caller (and its
       deterministic schedule) bit-for-bit unchanged. *)
    let (module E : Exec.Intf.RUNNER) =
      match exec with
      | Some e -> e
      | None -> Exec.Sim_exec.make ~machine ?max_steps ?policy ()
    in
    (* Graceful degradation of sim-only features on a non-deterministic
       backend: the shadow-state sanitizer and the recorder's event
       counters share unsynchronized state across what would now be racing
       domains, and part of the chaos trigger vocabulary needs a global
       event order. *)
    let sanitize =
      if sanitize && not E.deterministic then begin
        Printf.eprintf
          "trial: sanitizer is unavailable on the %s backend; running \
           without it\n\
           %!"
          E.name;
        false
      end
      else sanitize
    in
    let chaos =
      match chaos with
      | Some plan when not E.deterministic ->
          let plan, dropped = Chaos.degrade plan in
          List.iter
            (fun f ->
              Printf.eprintf
                "trial: chaos fault %s needs a deterministic backend; \
                 dropped on %s\n\
                 %!"
                (Chaos.fault_to_string f) E.name)
            dropped;
          Some plan
      | c -> c
    in
    let group = Runtime.Group.create ~seed n in
    let heap = Memory.Heap.create () in
    let env = Reclaim.Intf.Env.create ~params group heap in
    let rm = RM.create env in
    let capacity = if capacity > 0 then capacity else range + 200_000 in
    let san =
      if sanitize then
        Some
          (Sanitizer.create ~scheme:RM.Reclaimer.name
             ~discipline:RM.Reclaimer.discipline ~heap ~group)
      else None
    in
    let ctx0 = Runtime.Group.ctx group 0 in
    (* Optional linearizability history: log an invocation/response pair
       around an operation.  Sound on both backends — the recorder's global
       sequence counter is atomic, and each pid only touches its own slots
       (see Lincheck.History). *)
    let record_op ctx op (f : unit -> bool) =
      match history with
      | None -> f ()
      | Some rec_ ->
          let tok =
            Lincheck.History.invoke rec_ ~pid:ctx.Runtime.Ctx.pid
              ~time:(Runtime.Ctx.now ctx) op
          in
          let r = f () in
          Lincheck.History.return_ rec_ tok ~time:(Runtime.Ctx.now ctx)
            (Lincheck.History.RBool r);
          r
    in
    let checked f =
      match san with None -> f () | Some sa -> Sanitizer.with_checks sa f
    in
    let chaos_engine = ref None in
    (* One telemetry buffer per process, merged after the run. *)
    let buffers =
      Option.map (fun r -> (r, Telemetry.Recorder.locals r)) telemetry
    in
    let run_result, base_claimed, limbo, invariant_failure =
      checked (fun () ->
          let s = S.create rm ~capacity in
          (* Prefill to half the key range (uninstrumented: backend hooks
             are not yet installed, so this costs no measured time). *)
          let rng = Random.State.make [| seed; 4242 |] in
          let target = range / 2 in
          let filled = ref 0 in
          (* The prefill is part of the recorded history (when recording):
             the checker's sequential spec starts from the empty set. *)
          while !filled < target do
            let key = 1 + Random.State.int rng range in
            if
              record_op ctx0 (Lincheck.History.Add key) (fun () ->
                  S.insert s ctx0 ~key ~value:key)
            then incr filled
          done;
          Array.iter Runtime.Ctx.reset_stats group.Runtime.Group.ctxs;
          let base_claimed = Memory.Heap.bytes_claimed heap in
          (* Telemetry gauges read run state with uninstrumented peeks:
             sampling never costs simulated time, and on domains it runs on
             a sampler domain outside every workload domain. *)
          (match telemetry with
          | None -> ()
          | Some rec_ ->
              Telemetry.Recorder.add_gauge rec_ ~name:"limbo" (fun () ->
                  RM.limbo_per_proc rm);
              Telemetry.Recorder.add_gauge rec_ ~name:"epoch_lag" (fun () ->
                  RM.epoch_lag rm);
              Telemetry.Recorder.add_gauge rec_ ~name:"pool_population"
                (fun () -> [| RM.pool_population rm |]);
              Telemetry.Recorder.add_gauge rec_ ~name:"live_records" (fun () ->
                  [| Memory.Heap.live_records heap |]);
              Telemetry.Recorder.add_gauge rec_ ~name:"bytes_claimed"
                (fun () -> [| Memory.Heap.bytes_claimed heap |]));
          (* The event counters are unsynchronized and bumped on every
             emission; only the deterministic backend may subscribe them. *)
          let tel_sub =
            if E.deterministic then
              Option.map
                (fun rec_ ->
                  let s =
                    Runtime.Ctx.subscriber ~scope:(Memory.Heap.scope heap)
                      ~event:(Telemetry.Recorder.on_event rec_) ()
                  in
                  Runtime.Group.subscribe group s;
                  s)
                telemetry
            else None
          in
          let tick =
            Option.map
              (fun rec_ ->
                ( Telemetry.Recorder.sample_every rec_,
                  fun now -> Telemetry.Recorder.tick rec_ now ))
              telemetry
          in
          (* Stalled-process campaign (E-stall): park the victim — the
             highest pid — mid-operation at its first instrumented access
             past [at], for [cycles] of backend time.  Mid-operation means
             since its previous access too, as for chaos' [In_operation]
             crashes: parked on the access that publishes its leave from
             the quiescent state, it would look quiescent to its peers.  A
             signal sent to the parked process is handled at its next
             access after waking, as a POSIX signal interrupts a
             descheduled thread on resume. *)
          let restore_stall =
            match stall with
            | None -> None
            | Some (at, cycles) ->
                let victim = Runtime.Group.ctx group (n - 1) in
                let fired = ref false and was_in_op = ref false in
                Some
                  (Runtime.Ctx.add_hook victim (fun c ~line:_ _kind ->
                       if not !fired then begin
                         let in_op = not (RM.is_quiescent rm c) in
                         if Runtime.Ctx.now c >= at && in_op && !was_in_op
                         then begin
                           fired := true;
                           Runtime.Ctx.stall c cycles
                         end
                         else was_in_op := in_op
                       end))
          in
          let plain_body pid () =
            let ctx = Runtime.Group.ctx group pid in
            let rng = Random.State.make [| seed; pid; 41 |] in
            while Runtime.Ctx.now ctx < duration do
              let key = 1 + Random.State.int rng range in
              let r = Random.State.int rng 100 in
              if r < ins then
                ignore
                  (record_op ctx (Lincheck.History.Add key) (fun () ->
                       S.insert s ctx ~key ~value:key))
              else if r < ins + del then
                ignore
                  (record_op ctx (Lincheck.History.Remove key) (fun () ->
                       S.delete s ctx key))
              else
                ignore
                  (record_op ctx (Lincheck.History.Mem key) (fun () ->
                       S.contains s ctx key))
            done
          in
          (* Same loop with per-operation timestamping.  Kept separate so
             the telemetry-off path contains no recording code at all.
             Each process records into its own buffer (no synchronization
             on the hot path, on either backend), and the buffers are
             merged into the shared histograms after the run. *)
          let recording_body locals pid () =
            let ctx = Runtime.Group.ctx group pid in
            let rng = Random.State.make [| seed; pid; 41 |] in
            while Runtime.Ctx.now ctx < duration do
              let key = 1 + Random.State.int rng range in
              let r = Random.State.int rng 100 in
              let start = Runtime.Ctx.now ctx in
              let kind =
                if r < ins then begin
                  ignore
                    (record_op ctx (Lincheck.History.Add key) (fun () ->
                         S.insert s ctx ~key ~value:key));
                  "insert"
                end
                else if r < ins + del then begin
                  ignore
                    (record_op ctx (Lincheck.History.Remove key) (fun () ->
                         S.delete s ctx key));
                  "delete"
                end
                else begin
                  ignore
                    (record_op ctx (Lincheck.History.Mem key) (fun () ->
                         S.contains s ctx key));
                  "search"
                end
              in
              Telemetry.Recorder.local_op locals.(pid) ~kind ~start
                ~finish:(Runtime.Ctx.now ctx)
            done
          in
          let body =
            match buffers with
            | None -> plain_body
            | Some (_, locals) -> recording_body locals
          in
          (* Bounded-memory mode and fault injection arm after the prefill:
             the record budget and the access-count fault triggers apply to
             the measured run only.  [budget] is headroom above the records
             already claimed (the prefill's live set plus whatever inventory
             its reclamation pipeline left in limbo and pools): the trial
             may claim at most [budget] further records before allocation
             starts failing over to emergency reclamation. *)
          if budget >= 0 then
            Memory.Heap.set_record_budget heap
              (Memory.Heap.budget_live heap + budget);
          chaos_engine :=
            Option.map
              (fun plan ->
                Chaos.install plan ~group ~heap ~in_op:(fun c ->
                    not (RM.is_quiescent rm c)))
              chaos;
          let run_result =
            match E.run ?tick group (Array.init n body) with
            | r -> Ok r
            | exception Memory.Arena.Arena_full a -> Error a
            | exception Memory.Arena.Out_of_memory a -> Error a
          in
          Option.iter Chaos.uninstall !chaos_engine;
          Option.iter (fun restore -> restore ()) restore_stall;
          Option.iter (Runtime.Group.unsubscribe group) tel_sub;
          Option.iter
            (fun (r, locals) -> Telemetry.Recorder.merge_locals r locals)
            buffers;
          let limbo = RM.limbo_size rm in
          (* Post-fault validation: whatever the faults did, the structure
             the survivors left behind must still satisfy its invariants. *)
          let invariant_failure =
            match chaos with
            | None -> None
            | Some _ -> (
                try
                  S.check_invariants s;
                  None
                with e -> Some (Printexc.to_string e))
          in
          (* Under the sanitizer, shut down quiescently so the shadow leak
             ledger can be reconciled against the reclaimer's limbo.
             Crashed processes are permanently non-quiescent: they take no
             part in the shutdown protocol, and [flush] is driven by the
             lowest surviving pid (a dead ctx must not execute protocol
             steps post-mortem). *)
          (match san with
          | None -> ()
          | Some sa ->
              let alive ctx =
                not
                  (Runtime.Group.is_crashed group ctx.Runtime.Ctx.pid)
              in
              for _ = 1 to 30 do
                Array.iter
                  (fun ctx ->
                    if alive ctx then begin
                      RM.leave_qstate rm ctx;
                      RM.enter_qstate rm ctx
                    end)
                  group.Runtime.Group.ctxs
              done;
              let janitor =
                match
                  Array.find_opt alive group.Runtime.Group.ctxs
                with
                | Some ctx -> ctx
                | None -> ctx0
              in
              RM.flush rm janitor;
              Sanitizer.leak_check sa ~limbo_size:(RM.limbo_size rm);
              let r = Sanitizer.report sa in
              if r <> "" then prerr_string r);
          (run_result, base_claimed, limbo, invariant_failure))
    in
    let stat f = Runtime.Group.sum_stats group f in
    let ops = stat (fun s -> s.Runtime.Ctx.ops) in
    let virtual_time, wall_seconds, cache, oom =
      match run_result with
      | Ok r ->
          (r.Exec.Intf.elapsed_cycles, r.Exec.Intf.wall_seconds,
           r.Exec.Intf.cache_stats, false)
      | Error _ -> (duration, 0., None, true)
    in
    {
      scheme = RM.scheme_name;
      backend = E.name;
      nprocs = n;
      ops;
      virtual_time;
      wall_seconds;
      mops =
        (if oom then 0.
         else Exec.Clock.mops E.clock ~ops ~cycles:virtual_time);
      bytes_claimed = Memory.Heap.bytes_claimed heap;
      bytes_claimed_trial = Memory.Heap.bytes_claimed heap - base_claimed;
      bytes_peak = Memory.Heap.bytes_peak heap;
      limbo;
      neutralized = stat (fun s -> s.Runtime.Ctx.neutralized);
      signals_sent = stat (fun s -> s.Runtime.Ctx.signals_sent);
      allocs = stat (fun s -> s.Runtime.Ctx.allocs);
      frees = stat (fun s -> s.Runtime.Ctx.frees);
      oom;
      crashed =
        (let c = ref 0 in
         for pid = 0 to n - 1 do
           if Runtime.Group.is_crashed group pid then incr c
         done;
         !c);
      chaos = Option.map Chaos.summary !chaos_engine;
      invariant_failure;
      cache;
      violations = Option.map Sanitizer.violation_count san;
      latency =
        (match telemetry with
        | None -> []
        | Some rec_ -> Telemetry.Recorder.latency_percentiles rec_);
    }
end
