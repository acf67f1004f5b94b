(** A heap groups the arenas of one data structure instance so that
    reclamation code can dispatch on a pointer's arena id.  Create one heap
    per experiment/trial. *)

type t

val create : unit -> t

(** Every arena of a heap emits its events under the heap's [scope] (see
    {!Smr_event}).  A consumer (a shadow checker, a telemetry recorder)
    subscribes to the group's probes with [~scope:(scope heap)] and so sees
    this heap's events only, even when several heaps share one group.
    [emit] lets reclamation code publish protocol events (retire, protect,
    quiescence) on the same stream as the arenas' lifecycle events. *)

val scope : t -> int
val emit : t -> Runtime.Ctx.t -> Smr_event.t -> unit

(** [new_arena t ~name ~mut_fields ~const_fields ~capacity] creates an arena
    registered in this heap (at most {!Ptr.max_arenas}). *)
val new_arena :
  t -> name:string -> mut_fields:int -> const_fields:int -> capacity:int -> Arena.t

val arena_of : t -> Ptr.t -> Arena.t
val arenas : t -> Arena.t list

(** [release t ctx p ~recycle] frees [p] in its owning arena. *)
val release : t -> Runtime.Ctx.t -> Ptr.t -> recycle:bool -> unit

val set_checking : t -> bool -> unit

(** Bounded-memory mode.  [set_record_budget t k] caps the number of
    simultaneously-live records across {e all} arenas of this heap at [k];
    further allocations raise {!Arena.Out_of_memory} until records are
    released.  [k < 0] (the default) removes the cap.  [budget_live] is the
    current charge against the budget; [budget_refusals] counts the
    allocations the cap has turned down. *)

val set_record_budget : t -> int -> unit
val record_budget : t -> int
val budget_live : t -> int
val budget_refusals : t -> int

(** Aggregated statistics over all arenas. *)

val live_records : t -> int
val bytes_claimed : t -> int
val bytes_peak : t -> int
val total_allocs : t -> int
val total_frees : t -> int
