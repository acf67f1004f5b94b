(** Deterministic fault-injection engine.

    A {!plan} is a seeded, fully explicit list of faults; {!install} arms
    them against a running group through one probe subscriber per group
    (accesses, handler entries and the heap's SMR events; see
    {!Runtime.Ctx.subscribe}) and the group's signal route.  Every trigger
    is keyed to a process' instrumented-access count — never to wall-clock
    or virtual time read mid-run — so a plan replayed against the same
    workload, machine and scheduling policy fires at exactly the same
    point in the interleaving.

    Three fault families (DESIGN.md §9):

    - {e process crashes}: the victim raises {!Runtime.Ctx.Crashed} at a
      chosen access, inside its signal handler, or right after it sends a
      neutralization signal; the runner marks it dead and reclaimers see
      [ESRCH] from then on;
    - {e signal-delivery faults}: chosen deliveries are dropped, or
      delayed until the target has performed a further fixed number of
      accesses, through {!Runtime.Group.set_signal_route}; any such fault
      also sets [signals_unreliable], switching DEBRA+ to its
      acknowledge-and-retry path;
    - {e bounded memory}: the heap's record budget is capped, so
      allocation raises {!Memory.Arena.Out_of_memory} unless the scheme's
      emergency reclamation path can free records first. *)

(** Where in its execution the victim crashes. *)
type crash_kind =
  | Anywhere  (** at the [at]-th instrumented access, wherever that lands *)
  | In_operation
      (** at the first access at or past [at] where the process is
          mid-operation (non-quiescent), and was at its previous access
          too — the adversarial case for epoch-based schemes, which
          [install]'s [in_op] predicate decides.  The second condition
          skips the access that publishes the process' leave from the
          quiescent state, where a crash would leave it quiescent to its
          peers *)
  | In_handler
      (** on entry to the [at]-th signal-handler run {e group-wide}: that
          process dies inside its handler, before any recovery code runs.
          [pid] is ignored — which process gets neutralized, and when,
          depends on the scheme's signalling pattern *)
  | Neutralizer
      (** at the victim's first access after the [at]-th neutralization
          signal (group-wide) was sent — and the victim is whoever sent it *)

type fault =
  | Crash of { pid : int; at : int; kind : crash_kind }
      (** for [Neutralizer] the [pid] is ignored (the sender is the victim)
          and [at] counts signals, not accesses *)
  | Drop_signals of { target : int; first : int; count : int }
      (** drop deliveries [first, first+count) to [target] (0-based, in
          order of arrival at the target) *)
  | Delay_signals of { target : int; first : int; count : int; by : int }
      (** delay those deliveries until [target] has performed [by] further
          instrumented accesses *)
  | Record_budget of int
      (** bounded-memory fault: cap the heap at the given headroom of
          records above what is claimed when the engine installs (i.e.
          after any prefill) *)

type plan = { seed : int; faults : fault list }

val fault_to_string : fault -> string

(** One line per fault, plus the seed — printed by campaign runners so any
    failure can be replayed with [--chaos-seed]. *)
val plan_to_string : plan -> string

(** The fault kinds {!random_plan} can draw. *)
type kind_spec =
  [ `Crash  (** one [In_operation] crash *)
  | `Crash_in_handler
  | `Crash_neutralizer
  | `Drop
  | `Delay
  | `Oom of int  (** [Record_budget] with the given headroom *) ]

(** [random_plan ~seed ~nprocs kinds] derives one fault per requested kind
    from the seed, deterministically.  Crash victims are drawn from
    [1 .. nprocs-1] when possible so at least one process survives. *)
val random_plan : seed:int -> nprocs:int -> kind_spec list -> plan

(** [degrade plan] restricts a plan to the faults a non-deterministic
    (real-parallelism) backend can honor: crash triggers keyed only to the
    victim's own access count ([Anywhere] / [In_operation]) and
    [Record_budget].  Faults that need the simulator's global event order
    ([In_handler] and [Neutralizer] crashes, signal drop/delay windows) are
    returned separately so the driver can report them as unsupported. *)
val degrade : plan -> plan * fault list

(** What an installed engine actually did. *)
type summary = {
  crashes : int;  (** processes that crashed (all kinds) *)
  handler_crashes : int;  (** of which: inside a signal handler *)
  signals_dropped : int;
  signals_delayed : int;
  signals_delivered_late : int;  (** delayed deliveries that landed *)
  budget_refusals : int;  (** allocations the record budget turned down *)
}

type t

(** [install plan ~group ~heap] arms every fault.  [in_op pid] decides
    [In_operation] triggers (default: always true, degrading it to
    [Anywhere]); runners pass the reclaimer's non-quiescence test.  Call
    after any prefill and before the measured run, so access counts start
    at the workload's first access.  Faults referring to pids outside the
    group are ignored. *)
val install :
  ?in_op:(Runtime.Ctx.t -> bool) ->
  plan ->
  group:Runtime.Group.t ->
  heap:Memory.Heap.t ->
  t

(** Restore every hook, handler, route and budget the engine replaced.
    Idempotent. *)
val uninstall : t -> unit

val summary : t -> summary

(** Chronological log of fired faults, for reports. *)
val fired : t -> string list

(** Sequential FIFO oracle for queue workloads under faults.  Producers
    draw tagged values from {!next_value}; consumers report what they
    dequeued; {!check} validates the two FIFO invariants that survive
    crashes: per (consumer, producer) pair the dequeued sequence numbers
    strictly increase, and every dequeued or drained value was enqueued
    exactly once (conservation — no duplication, no invention).  Values
    still in the queue at the end are passed as [drained]. *)
module Fifo_oracle : sig
  type t

  val create : nprocs:int -> t

  (** [next_value t ~pid] mints the producer's next tagged value. *)
  val next_value : t -> pid:int -> int

  (** [dequeued t ~pid v] records that consumer [pid] dequeued [v]. *)
  val dequeued : t -> pid:int -> int -> unit

  (** [check t ~drained] returns [None] if the invariants hold, or a
      description of the first violation. *)
  val check : t -> drained:int list -> string option
end
