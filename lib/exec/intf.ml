(** The execution-backend abstraction.

    The Record Manager thesis is "write the data structure once, swap the
    reclamation scheme by changing one line"; a {!RUNNER} extends the same
    courtesy to {e execution}: the trial pipeline (workload bodies,
    telemetry sampling, chaos installation, crash accounting) is written
    once against this signature and runs unchanged on the deterministic
    virtual-time simulator ({!Sim_exec}) or on real OCaml 5 domains
    ({!Domain_exec}).

    A backend's obligations:

    - {b spawn}: run every group body to completion and install the
      context's [now_impl]/[stall_impl] for the duration of the run;
    - {b signals}: preserve the {!Runtime.Ctx} guarantee that a signalled
      process runs its handler before its next instrumented access (the
      simulator delivers exactly; domains deliver at the next flag poll,
      an approximation documented in DESIGN.md §2);
    - {b time}: report elapsed time in {!Clock.t} cycles of its own time
      base, plus real wall-clock seconds;
    - {b sampling}: drive the [tick] callback approximately once per
      interval of its time base, never from inside a workload fiber;
    - {b crash reporting}: a body that terminates via {!Runtime.Ctx.Crashed}
      must be marked dead in the group ({!Runtime.Group.mark_crashed})
      {e at death}, so fault-tolerant reclaimers observe ESRCH while the
      run is still in flight;
    - {b stuck reporting}: a backend that can prove the run is wedged
      raises its own diagnostic (the simulator's {!Sim.Stuck}); backends
      that cannot say so in [limitations]. *)

type result = {
  elapsed_cycles : int;
      (** end-to-end run time in cycles of the backend's {!Clock.t}
          (virtual time under the simulator, scaled wall-clock under
          domains) *)
  wall_seconds : float;  (** real time the run took on the host *)
  cache_stats : Machine.Cache.stats option;
      (** simulator cache-model counters; [None] on real hardware *)
  context_switches : int;  (** simulated context switches; 0 on domains *)
}

module type RUNNER = sig
  val name : string

  val clock : Clock.t

  (** [true] when identical inputs replay the identical interleaving:
      virtual-time tick boundaries are exact, chaos plans fire at fixed
      points, and host-side recording cannot race.  [false] on real
      parallelism: the trial pipeline then degrades the sim-only features
      (sanitizer, non-per-process chaos triggers, telemetry event counters)
      instead of racing on them. *)
  val deterministic : bool

  (** Human-readable notes on what this backend cannot provide, printed
      by drivers when a degraded feature was requested.  Empty for the
      simulator. *)
  val limitations : string list

  (** [run ?tick group bodies] runs [bodies.(pid)] for every pid to
      completion and returns the outcome.  [?tick:(interval, f)] fires
      [f now] about once per [interval] cycles with a monotone [now]; [f]
      must only perform uninstrumented reads (telemetry gauges).
      Exceptions other than {!Runtime.Ctx.Crashed} escaping a body are
      re-raised after the run winds down. *)
  val run :
    ?tick:int * (int -> unit) ->
    Runtime.Group.t ->
    (unit -> unit) array ->
    result
end
