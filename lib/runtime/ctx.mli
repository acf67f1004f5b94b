(** Per-process execution context.

    Every per-process operation in the library takes a [Ctx.t] explicitly,
    mirroring the [pid]-indexed pseudocode of the paper.  The context carries
    the process id, the simulated-signal state (the substitute for POSIX
    signals, see DESIGN.md), its probe (the one observation seam, see
    below), the execution backend's slots, and per-process statistics.

    The fundamental guarantee provided here is the one DEBRA+ requires of the
    operating system: after another process sets this process' signal flag,
    the registered handler runs before the process performs its next
    instrumented shared-memory access. *)

type access_kind =
  | Read
  | Write
  | Cas
  | Fence  (** a full memory barrier, as issued after a HP announcement *)
  | Work of int  (** uninstrumented local computation of the given cost *)

(** Raised by a signal handler to abort the interrupted operation; the moral
    equivalent of the paper's [siglongjmp] out of the signal handler.  Data
    structure operation wrappers catch it and run recovery code. *)
exception Neutralized

(** Raised by a process body to simulate a crash; runners treat the process
    as permanently stopped (it remains non-quiescent if it crashed
    mid-operation). *)
exception Crashed

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable cass : int;
  mutable fences : int;
  mutable local_work : int;  (** cycles of [Work] charged *)
  mutable allocs : int;
  mutable frees : int;
  mutable retires : int;
  mutable ops : int;  (** completed data structure operations *)
  mutable neutralized : int;  (** times this process was neutralized *)
  mutable signals_sent : int;
  mutable signals_ignored : int;  (** signals received while quiescent *)
}

type probe

type t = {
  pid : int;
  nprocs : int;
  sig_pending : bool Atomic.t;
  mutable sig_mask : int;
      (** signal-mask depth; while positive, [poll] defers handler delivery
          (the pending flag stays set).  See {!mask}/{!unmask}. *)
  mutable handler : t -> unit;
      (** signal handler; invoked at the next instrumented access after
          [sig_pending] is set.  Default: ignore. *)
  probe : probe;
      (** this context's subscribers (see {!subscribe}) and the backend's
          access step (see {!set_access_step}) *)
  mutable now_impl : unit -> int;
      (** current time in cycles (virtual under the simulator, scaled
          wall-clock under domains). *)
  mutable stall_impl : int -> unit;
      (** park this process for the given number of cycles. *)
  mutable rng : Random.State.t;
  stats : stats;
}

val make : pid:int -> nprocs:int -> seed:int -> t

(** [poll ctx] checks the signal flag and, if set, clears it and runs the
    handler.  Called automatically by [access]; exposed so long local-only
    code paths can poll explicitly. *)
val poll : t -> unit

(** [mask ctx] / [unmask ctx] bracket a critical section during which signal
    delivery is deferred — the analogue of [pthread_sigmask(SIG_BLOCK, ...)]
    around code that must not be torn out by a neutralization [siglongjmp]
    (e.g. a lock-holding window in the lazy skip list).  Calls nest; the
    pending flag is not cleared, so a signal received while masked is
    handled at the first instrumented access after the outermost [unmask].
    A scheme relying on masked windows must treat signal delivery as
    unreliable (acknowledgement-based, see {!Group.t.signals_unreliable}):
    the sender cannot assume a signalled process was neutralized
    immediately. *)
val mask : t -> unit

val unmask : t -> unit

(** [access ctx ~line kind] records one instrumented shared-memory access:
    polls the signal flag, updates statistics, runs the access subscribers,
    then the backend's access step.  With no access subscriber and no step
    ({!fast_path}), the last two cost one branch. *)
val access : t -> line:int -> access_kind -> unit

(** [set_access_step ctx f] installs the backend's per-access step, run
    after every access subscriber: the simulator charges cache-model costs
    and yields to the scheduler here.  Set and cleared by the backend with
    [now_impl] and [stall_impl]. *)
val set_access_step : t -> (t -> line:int -> access_kind -> unit) -> unit

(** [clear_access_step ctx] removes the backend's step; with no access
    subscriber left, [ctx] is back on the fast path. *)
val clear_access_step : t -> unit

(** [true] when an access runs only its poll, its stats and one branch:
    [ctx] has no access subscriber and no backend step. *)
val fast_path : t -> bool

(** {1 The probe}

    Every observer of a process' steps — sanitizer, telemetry, fault
    injector — subscribes to the context's probe.  A {!subscriber} bundles
    up to three callbacks:

    - [access]: each instrumented access, after the signal poll and before
      the backend's access step (the simulator's cache charge and yield);
    - [event]: each {!Event.t} emitted on this context under a heap scope
      the subscriber's [scope] matches (omitted: every scope);
    - [handler_entry]: on entry to each handler run, before the handler
      (raising {!Crashed} here kills the process inside its handler).

    Channels run subscribers in subscription order; [unsubscribe] removes
    exactly one, in any order.  Dispatch is rebuilt only on (un)subscribe;
    an empty channel costs one branch, and the access channel shares its
    branch with the backend step. *)

type subscriber

val subscriber :
  ?scope:int ->
  ?access:(t -> line:int -> access_kind -> unit) ->
  ?event:(t -> Event.t -> unit) ->
  ?handler_entry:(t -> unit) ->
  unit ->
  subscriber

(** @raise Invalid_argument if [s] is already subscribed to [ctx]. *)
val subscribe : t -> subscriber -> unit

val unsubscribe : t -> subscriber -> unit

(** [true] when some subscriber listens for events.  Hot emitters test it
    {e before} building an event, so an unobserved emission allocates
    nothing. *)
val observed : t -> bool

val emit : t -> scope:int -> Event.t -> unit

(** A fresh event scope; every heap takes one. *)
val new_scope : unit -> int

(** [add_hook ctx f] subscribes [f] as an access observer of [ctx] and
    returns the thunk that unsubscribes it — that subscriber only, so
    hooks may be removed in any order. *)
val add_hook : t -> (t -> line:int -> access_kind -> unit) -> unit -> unit

(** [work ctx cost] charges [cost] cycles of local computation. *)
val work : t -> int -> unit

(** [fence ctx] charges a full memory barrier. *)
val fence : t -> unit

val now : t -> int
val stall : t -> int -> unit

(** [crash ctx] simulates a process crash by raising {!Crashed}. *)
val crash : t -> 'a

val reset_stats : t -> unit
val stats_total_accesses : stats -> int
