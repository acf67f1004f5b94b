(** Sharded KV/session store over the SET-face structures, one record
    manager per shard (see the implementation header for the layout, the
    read/write protocols, TTL expiry, and the multi-RM signal-delivery
    argument). *)

module Make (RM : Reclaim.Intf.RECORD_MANAGER) : sig
  type t

  val structure_names : string list
  (** Index structures [create] accepts (SET-face names). *)

  val create :
    ?structure:string ->
    ?params:Reclaim.Intf.Params.t ->
    ?payload_words:int ->
    shards:int ->
    capacity_per_shard:int ->
    group:Runtime.Group.t ->
    unit ->
    t
  (** Build a store of [shards] independent record managers (default
      structure ["skiplist"], default [payload_words] 10 — 70 bytes of
      key+value per entry).  Must be called from a quiescent context
      before workers start.  Raises [Invalid_argument] on an unknown
      structure or non-positive sizes. *)

  val nshards : t -> int

  val shard_of_key : t -> string -> int
  (** Deterministic key→shard routing (mix then range partition). *)

  val put : ?ttl:int -> t -> Runtime.Ctx.t -> key:string -> value:string -> unit
  (** Upsert.  [ttl] is a relative deadline in backend cycles; absent
      means the entry never expires.  Raises [Invalid_argument] when the
      key is empty or key+value exceed the payload capacity. *)

  val get : t -> Runtime.Ctx.t -> string -> string option
  (** Lookup; an entry past its deadline reads as a miss and is lazily
      removed (its payload retired) by the reader that finds it. *)

  val delete : t -> Runtime.Ctx.t -> string -> bool
  (** Remove and retire; true if this call won the removal. *)

  (** Uninstrumented inspection — quiescent callers only. *)

  val size : t -> int
  val shard_sizes : t -> int array

  val heaps : t -> Memory.Heap.t array
  (** Per-shard heaps, whose scopes sanitizers and telemetry subscribe to. *)

  val limbo : t -> int

  val shard_limbo : t -> int -> int
  (** One shard's records awaiting reclamation (uninstrumented gauge). *)

  val shard_pool : t -> int -> int
  (** One shard's pool population (records parked for reuse). *)

  val shard_pressure : t -> int -> Reclaim.Intf.Pressure.t
  (** One shard's live reclamation-pressure counters. *)

  val pressure : t -> Reclaim.Intf.Pressure.t
  (** Pressure summed over all shards (a fresh snapshot). *)

  val emergency_reclaim : t -> Runtime.Ctx.t -> shard:int -> int
  (** Force reclamation work on one shard now (watermark escalation):
      the scheme's allocation-failure path, invoked before any failure.
      Returns records freed.  Performs instrumented accesses. *)

  val in_operation : t -> Runtime.Ctx.t -> bool
  (** True while this process is mid-operation on any shard — the
      [in_op] predicate for chaos' [In_operation] crash trigger. *)

  val hold_shard : t -> Runtime.Ctx.t -> shard:int -> cycles:int -> unit
  (** Park mid-operation on one shard for [cycles] (the E-stall straggler
      scoped to a single shard), absorbing any neutralization on wake. *)

  val bytes_claimed : t -> int
  val check_invariants : t -> unit

  val flush : t -> Runtime.Ctx.t -> unit
  (** Drain every shard's limbo as far as its scheme allows. *)
end
