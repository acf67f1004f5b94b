(** Deterministic discrete-event simulation of [n] processes on a modelled
    multiprocessor.

    Each process body runs as an effect-handler fiber.  Every instrumented
    shared-memory access (via {!Runtime.Ctx.access}) is priced by the MESI/
    NUMA cache model and yields to the scheduler, which always resumes the
    process on the hardware context with the smallest virtual time — i.e.
    accesses are globally ordered by virtual time, giving a faithful (and
    reproducible) model of parallel execution on a single real core.

    Processes are pinned to context [pid mod contexts].  When more processes
    than hardware contexts exist, contexts multiplex them with a round-robin
    quantum: a descheduled process's clock freezes, which is exactly the
    stalled-while-non-quiescent pathology that motivates DEBRA+.

    Signal delivery is exact in this mode: a signalled process runs its
    handler before its next instrumented access, and accesses are atomic in
    virtual time. *)

type result = {
  virtual_time : int;  (** max core time at termination, in cycles *)
  crashed : bool array;  (** per-pid: terminated via [Ctx.Crashed] *)
  cache_stats : Machine.Cache.stats;
  context_switches : int;
  steps : int;  (** scheduler steps (instrumented accesses) executed *)
}

(** Livelock diagnostic, one entry per process: its scheduling state, the
    virtual clock of its hardware context, how many instrumented accesses it
    performed and the cache line of the last one — enough to tell a wedge
    (everyone parked or spinning on a crashed peer's line) from a runaway
    loop (one runnable process with a huge access count). *)
type proc_state = [ `Runnable | `Parked of int | `Finished | `Crashed ]

type proc_diag = {
  d_pid : int;
  d_state : proc_state;
  d_clock : int;
  d_accesses : int;
  d_last_line : int;
}

type stuck_info = {
  s_reason : string;
  s_time : int;  (** max core clock when the scheduler gave up *)
  s_steps : int;
  s_procs : proc_diag array;
}

exception Stuck of stuck_info
  (** raised when the scheduler exceeds its step budget, indicating livelock;
      the diagnostic is also printed to stderr *)

val stuck_to_string : stuck_info -> string

(** One runnable hardware context at a [`Systematic] choice point:
    [cand_pid] is the process at the front of core [cand_core]'s run queue
    and [cand_line] the cache line of the instrumented access it will
    perform when next resumed ([-1] before its first access).  The
    simulator's access step records the line {e before} suspending the
    fiber, so pending accesses of descheduled processes are visible — the
    information a conflict-driven (DPOR/sleep-set style) explorer needs to
    decide where preemption can matter. *)
type candidate = { cand_core : int; cand_pid : int; cand_line : int }

(** Scheduling policy.  [`Min_time] (the default) always runs the hardware
    context with the smallest virtual clock — the faithful model of parallel
    execution, and the one every benchmark uses.  [`Random_walk seed] picks a
    runnable context uniformly at random at every step: virtual times lose
    their parallel meaning, but each seed explores a different {e logical}
    interleaving of the same program, which is how the test suites hunt for
    ordering bugs beyond the single min-time schedule.

    [`Systematic choose] delegates every choice point to [choose ~step
    candidates], which returns an index into [candidates]: the substrate for
    bounded-preemption exhaustive exploration (see [Lincheck.Explore]).  A
    schedule is fully determined by the sequence of choices, so recording
    them makes every explored interleaving replayable bit-for-bit.  One
    choice point occurs per scheduler step — i.e. per instrumented access —
    and the chooser may raise to abandon the run early. *)
type policy =
  [ `Min_time
  | `Random_walk of int
  | `Systematic of step:int -> candidate array -> int ]

(** [run ~machine group bodies] runs [bodies.(pid)] for each pid to
    completion and returns the outcome.  Sets each context's backend slots
    (its access step, [now_impl], [stall_impl]) for the duration of the run
    and clears them after, also on a [Stuck] escape, so the contexts return
    to {!Ctx.fast_path}; probe subscribers are left alone and run before
    each access step.
    Exceptions other than [Ctx.Crashed] escaping a body abort the
    simulation and are re-raised.

    [?tick:(interval, f)] fires [f now] once per [interval]-cycle boundary
    of global virtual time, in order and with the nominal boundary time —
    the telemetry sampling hook.  [f] runs in scheduler context (no fiber
    is active): it must not perform simulated accesses or effects, only
    uninstrumented reads ([peek]-style gauges).  Boundary times are only
    meaningful under [`Min_time]. *)
val run :
  ?machine:Machine.Config.t ->
  ?max_steps:int ->
  ?policy:policy ->
  ?tick:int * (int -> unit) ->
  Runtime.Group.t ->
  (unit -> unit) array ->
  result
