(** A group of [n] process contexts sharing one data structure instance.

    The group is the unit over which reclamation schemes operate: signals are
    sent between members of a group, and announcement arrays are indexed by
    group pid.

    The group also carries the {e operating-system view} of its members that
    fault-tolerant schemes are allowed to consult: which processes have
    crashed (a signal to them fails, as [pthread_kill] fails with [ESRCH]),
    and whether signal delivery is currently reliable (fault injection can
    drop or delay signals; see lib/chaos). *)

(** Verdict of the signal router for one send: deliver now, or drop.  A
    delayed delivery is a [`Drop] here plus a later out-of-band set of the
    target's pending flag by the fault injector. *)
type route = [ `Deliver | `Drop ]

type t = {
  ctxs : Ctx.t array;
  seed : int;
  crashed : bool array;  (** per-pid: the OS knows this process is dead *)
  mutable signals_unreliable : bool;
      (** when set (by a fault injector), schemes must not assume one
          successful [send_signal] implies the handler will run; DEBRA+
          switches to its acknowledge-and-retry path *)
  mutable signal_route : from:Ctx.t -> target:int -> route;
}

val create : ?seed:int -> int -> t
val nprocs : t -> int
val ctx : t -> int -> Ctx.t

(** Crash bookkeeping.  [mark_crashed] is called by runners (the simulator)
    when a process terminates via {!Ctx.Crashed}; reclaimers may consult
    [is_crashed] the way an OS exposes process liveness. *)

val mark_crashed : t -> int -> unit
val is_crashed : t -> int -> bool
val any_crashed : t -> bool

(** Fault-injection hooks: [set_signal_route] interposes on every delivery;
    [reset_signal_route] restores reliable delivery and clears
    [signals_unreliable]. *)

val set_signal_route : t -> (from:Ctx.t -> target:int -> route) -> unit
val reset_signal_route : t -> unit

(** [send_signal t ~from ~target] delivers a simulated POSIX signal: sets
    [target]'s pending flag.  The handler runs before [target]'s next
    instrumented access (see {!Ctx}).  Returns [true] on success, mirroring
    [pthread_kill]; returns [false] when [target] has crashed (the [ESRCH]
    case) {e without} counting a sent signal.  Under an installed signal
    route the flag may be dropped or delayed even when [true] is
    returned. *)
val send_signal : t -> from:Ctx.t -> target:int -> bool

(** [subscribe t s] / [unsubscribe t s] attach [s] to / detach it from
    every member's probe (see {!Ctx.subscribe}). *)

val subscribe : t -> Ctx.subscriber -> unit
val unsubscribe : t -> Ctx.subscriber -> unit

(** Sum of a per-process statistic over the group. *)
val sum_stats : t -> (Ctx.stats -> int) -> int
