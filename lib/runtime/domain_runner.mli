(** Run a group's process bodies on real OCaml domains.

    This is the "real parallelism" execution mode: hooks stay no-ops (so an
    instrumented access costs one atomic flag poll), and [Ctx.now] reports
    scaled wall-clock time in nominal cycles.

    Under this runner a signal does not stop its target at once: a process
    that has passed its flag poll may be preempted before its memory
    operation for an unbounded time and complete that access after being
    signalled (see DESIGN.md §2).  [run] therefore marks the group's
    signals unreliable ({!Group.t.signals_unreliable}), so a sender counts a
    signalled process as neutralized only once its announcement
    acknowledges it.  A stalled process ([Ctx.stall]) wakes early to
    handle a pending signal. *)

type outcome = Finished | Crashed of exn

(** [run group bodies] runs [bodies.(pid)] for every pid on its own domain
    and waits for all of them.

    [cycles_per_second] is the wall-clock scale of [Ctx.now] (default 1e9,
    i.e. 1 cycle = 1 ns; [Exec.Clock.wall] is the canonical definition —
    pass its [cycles_per_second] rather than a literal).

    A body that terminates with {e any} exception is marked dead in the
    group ({!Group.mark_crashed}) from its own domain at the moment of
    death, so concurrent survivors observe ESRCH semantics immediately;
    exceptions other than [Ctx.Crashed] are then re-raised after all
    domains join.

    [?tick:(every, f)] spawns one extra sampler domain calling [f now]
    about once per [every] cycles of wall time until every body finishes —
    the telemetry hook.  Cadence and timestamps are approximate, unlike the
    simulator's exact virtual-time boundaries; [f] must only perform
    uninstrumented reads.

    Returns the wall-clock seconds elapsed and each body's outcome. *)
val run :
  ?cycles_per_second:float ->
  ?tick:int * (int -> unit) ->
  Group.t ->
  (unit -> unit) array ->
  float * outcome array
