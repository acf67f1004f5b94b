(** Shadow-state SMR sanitizer: the one shadow SMR state machine.

    Consumes the {!Memory.Smr_event} stream of one heap and replays it
    against a shadow copy of every record's lifecycle
    (fresh → published → retired → freed → recycled) and of every process'
    protection/quiescence state.  Scheme-specific invariants — what makes a
    free premature, which accesses need a covering hazard — are selected by
    the scheme's declared {!Memory.Discipline.t}.

    The sanitizer is a checker, not a scheme: it never blocks a free or an
    access, it only records {!violation}s (de-duplicated per record and
    kind).  Wrap any run in {!with_checks}; call {!leak_check} after the
    final [flush] to reconcile the shadow limbo ledger with the reclaimer's
    own [limbo_size].

    Bounded exploration ([Workload.Lin_harness]) runs every explored
    world under one sanitizer, so every schedule it tries is held to these
    rules as well as to the structure's sequential specification.

    See DESIGN.md §"Sanitizer" for the state machine and the per-scheme
    invariant table. *)

(** Violation kinds.  Double-retire and free-without-retire are not
    checked here: the typestate API ({!Reclaim.Intf.RECORD_MANAGER.Typed})
    makes both unrepresentable — see the "static guarantees" table in the
    README. *)
type kind =
  | Use_after_free  (** access to a freed record *)
  | Unprotected_access
      (** access to a retired record without a covering protection *)
  | Premature_free
      (** free while a grace period was open or a protection held *)
  | Double_free
  | Leak  (** shadow ledger and reclaimer limbo disagree at the end *)
  | Unquiesced_access
      (** access to a shared record outside a session, under a scheme with
          interval quiescence, by a process holding no recovery
          announcement on it *)

type violation = {
  kind : kind;
  pid : int;  (** process on whose context the offending event fired *)
  time : int;  (** virtual time ({!Runtime.Ctx.now}) at the event *)
  seq : int;  (** global event sequence number *)
  ptr : Memory.Ptr.t;  (** offending record (unmarked); null for [Leak] *)
  detail : string;  (** provenance: allocator/retirer pids and sequences *)
}

type t

(** [create ~scheme ~discipline ~heap ~group]: [scheme] names the
    reclaimer in reports; [discipline] is its declared rule set (normally
    [RM.Reclaimer.discipline]). *)
val create :
  scheme:string ->
  discipline:Memory.Discipline.t ->
  heap:Memory.Heap.t ->
  group:Runtime.Group.t ->
  t

(** [with_checks t f] subscribes the sanitizer to every group context's
    probe (the heap's events and every access), runs [f], and
    unsubscribes, even on exception.  Other subscribers are unaffected.
    Nesting is not supported: one sanitizer per heap at a time. *)
val with_checks : t -> (unit -> 'a) -> 'a

(** [on_event t ctx ev] replays one event against the shadow state; what
    {!with_checks} subscribes.  Control-plane events only advance the
    event sequence. *)
val on_event : t -> Runtime.Ctx.t -> Memory.Smr_event.t -> unit

(** [leak_check t ~limbo_size] reconciles the shadow ledger (records retired
    but never freed) against the reclaimer's reported [limbo_size]; any
    disagreement is recorded as a {!Leak} violation, except that each
    process which crashed right after announcing a retire may have taken
    that one record with it.  Call after quiescing and [flush]ing the
    reclaimer.  No-op when [track_limbo] is off. *)
val leak_check : t -> limbo_size:int -> unit

val violations : t -> violation list
(** chronological order *)

val violation_count : t -> int
val has : t -> kind -> bool

val retired_unfreed : t -> int
(** current shadow limbo ledger *)

val accesses_checked : t -> int
(** instrumented accesses observed through the probe; nonzero proves the
    access subscription is wired *)

val kind_name : kind -> string
val pp_violation : Format.formatter -> violation -> unit

val report : t -> string
(** human-readable summary of all violations (empty string when clean) *)
