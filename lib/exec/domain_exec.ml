(** {!Intf.RUNNER} on real OCaml 5 domains: the "real parallelism"
    execution mode.

    One domain per group member plus (when sampling) one sampler domain;
    hooks stay no-ops (so an instrumented access costs one atomic flag
    poll), and [Ctx.now] is wall-clock time scaled to {!Clock.wall} cycles
    (1 cycle = 1 ns).  Crash bookkeeping is live: a body dying with
    {e any} exception is marked in the group from its own domain, so
    fault-tolerant reclaimers observe ESRCH mid-run exactly as they do
    under the simulator; exceptions other than {!Runtime.Ctx.Crashed} are
    re-raised after every domain joins.

    Under this runner a signal does not stop its target at once: a process
    that has passed its flag poll may be preempted before its memory
    operation for an unbounded time and complete that access after being
    signalled (see DESIGN.md §2).  [run] therefore marks the group's
    signals unreliable ({!Runtime.Group.t.signals_unreliable}), so a sender
    counts a signalled process as neutralized only once its announcement
    acknowledges it.  A stalled process ([Ctx.stall]) wakes early to
    handle a pending signal.

    What degrades relative to {!Sim_exec} is spelled out in [limitations]
    (and DESIGN.md §10): no cache model, approximate sampling cadence, no
    livelock diagnosis, and none of the deterministic-replay machinery
    that the sanitizer and the sim-only chaos triggers rely on. *)

let limitations =
  [
    "no cache model: cache_stats and context_switches are not reported";
    "sampling cadence and tick timestamps are approximate (wall-clock \
     sleeps, not exact boundaries)";
    "no livelock diagnosis: a wedged run hangs instead of raising Stuck";
    "not deterministic: sanitizer, telemetry event counters and chaos \
     triggers that need a global order (handler/neutralizer crashes, \
     signal drop/delay windows) are unavailable";
  ]

type outcome = Finished | Crashed of exn

let cycles_per_second = Clock.wall.Clock.cycles_per_second

(** [run ?tick group bodies] runs [bodies.(pid)] for every pid on its own
    domain and waits for all of them.  [?tick:(every, f)] spawns one extra
    sampler domain calling [f now] about once per [every] cycles of wall
    time until every body finishes — the telemetry hook; [f] must only
    perform uninstrumented reads. *)
let run ?tick group bodies =
  let module Ctx = Runtime.Ctx in
  let module Group = Runtime.Group in
  let n = Group.nprocs group in
  assert (Array.length bodies = n);
  let start = Unix.gettimeofday () in
  let now () =
    int_of_float ((Unix.gettimeofday () -. start) *. cycles_per_second)
  in
  let install ctx =
    ctx.Ctx.now_impl <- now;
    (* A stalled process sleeps, staying non-quiescent: the pathology
       DEBRA+ exists to neutralize.  A signal wakes it to run its handler,
       as a POSIX signal interrupts [nanosleep]; otherwise a sleeper could
       acknowledge nothing until its stall ends. *)
    ctx.Ctx.stall_impl <-
      (fun cycles ->
        let until =
          Unix.gettimeofday () +. (float_of_int cycles /. cycles_per_second)
        in
        let rec nap () =
          let left = until -. Unix.gettimeofday () in
          if left > 0. && not (Atomic.get ctx.Ctx.sig_pending) then begin
            Unix.sleepf (Float.min left 1e-4);
            nap ()
          end
        in
        nap ();
        Ctx.poll ctx)
  in
  Array.iter install group.Group.ctxs;
  (* A signal here is a flag the target reads at its next instrumented
     access, and a target past that poll may be preempted before its
     memory operation for as long as the OS likes.  So a sent signal
     proves nothing until the target's announcement acknowledges it. *)
  group.Group.signals_unreliable <- true;
  let outcomes = Array.make n Finished in
  (* The periodic sampler: a dedicated domain driving the telemetry tick at
     roughly one call per [every] cycles of wall time.  Unlike the
     simulator's exact virtual-time boundaries, cadence and timestamps here
     are approximate (scheduling jitter); the callback still only ever runs
     outside every workload domain. *)
  let sampler_stop = Atomic.make false in
  let sampler =
    Option.map
      (fun (every, f) ->
        if every <= 0 then
          invalid_arg "Domain_exec.run: tick interval must be > 0";
        let period = float_of_int every /. cycles_per_second in
        Domain.spawn (fun () ->
            while not (Atomic.get sampler_stop) do
              Unix.sleepf period;
              if not (Atomic.get sampler_stop) then f (now ())
            done))
      tick
  in
  let domains =
    Array.init n (fun pid ->
        Domain.spawn (fun () ->
            match bodies.(pid) () with
            | () -> Finished
            | exception e ->
                (* Mark the pid dead the instant it dies, not after the
                   join barrier: survivors doing fault-tolerant reclamation
                   (DEBRA+'s ESRCH path, ThreadScan's lock steal) must see
                   a dead process while the run is still in flight, or they
                   wait forever on a corpse. *)
                Group.mark_crashed group pid;
                Crashed e))
  in
  Array.iteri (fun pid d -> outcomes.(pid) <- Domain.join d) domains;
  Atomic.set sampler_stop true;
  Option.iter Domain.join sampler;
  let elapsed = Unix.gettimeofday () -. start in
  (* Re-raise real failures (but not simulated crashes). *)
  Array.iter
    (function
      | Crashed Ctx.Crashed | Finished -> ()
      | Crashed e -> raise e)
    outcomes;
  {
    Intf.elapsed_cycles = Clock.cycles_of_seconds Clock.wall elapsed;
    wall_seconds = elapsed;
    cache_stats = None;
    context_switches = 0;
  }

let make () : (module Intf.RUNNER) =
  (module struct
    let name = "domains"
    let clock = Clock.wall
    let deterministic = false
    let limitations = limitations
    let run = run
  end)
