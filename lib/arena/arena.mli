(** Typed record arenas: the library's substitute for [malloc]/[free].

    An arena holds fixed-shape records made of [mut_fields] atomic words
    (pointers, state words — anything CASed) and [const_fields] plain words
    (keys, values — written once between allocation and publication).  Both
    kinds are mapped to virtual cache lines so the machine model prices them.

    The arena implements the record lifecycle of the paper's Figure 1:
    slots are {e unallocated} until claimed, {e allocated} until freed, and
    freeing bumps the slot's generation so that any access through a stale
    pointer raises {!Use_after_free} — the testable analogue of a segfault.
    "Retired" is a reclamation-scheme notion and is not tracked here.

    Allocation is split into [claim_fresh] (bump allocation of a never-used
    slot) and [claim_recycled] (pop of the free list), so that Allocators can
    implement the paper's Bump and malloc-style policies.  [release] frees a
    slot; with [~recycle:false] the slot is leaked, which is what the bump
    allocator's [deallocate] does in Experiment 1. *)

exception Use_after_free of string
exception Double_free of string
exception Arena_full of string

(** Raised by allocation when the heap's live-record budget is exhausted —
    the simulated analogue of [malloc] returning [NULL] under a bounded
    heap.  Unlike {!Arena_full} (the arena's backing region ran out), the
    budget is shared across all arenas of a heap and is freed again by
    [release]: a reclaimer that drains limbo can make a retried allocation
    succeed.  See {!Heap.set_record_budget}. *)
exception Out_of_memory of string

type t

(** A live-record budget shared by the arenas of one heap.  [limit < 0]
    (the default) means unlimited; the live counter is maintained either
    way so a limit can be installed mid-run.  [refused] counts the
    allocations the limit turned down. *)
type budget = { mutable limit : int; b_live : int Atomic.t; refused : int Atomic.t }

val budget_unlimited : unit -> budget

(** [create ?scope ?budget …] builds an arena.  Lifecycle and access
    events are emitted on the acting context's probe under [scope] (a fresh
    one when omitted; see {!Smr_event}); arenas of one heap share the
    heap's scope, and likewise its record [budget]. *)
val create :
  ?scope:int ->
  ?budget:budget ->
  heap_id:int ->
  name:string ->
  mut_fields:int ->
  const_fields:int ->
  capacity:int ->
  unit ->
  t

val name : t -> string
val heap_id : t -> int

val capacity : t -> int
val record_bytes : t -> int

(** Enable/disable generation+state validation on every access (on by
    default).  Benchmarks can disable it to measure pure scheme costs. *)
val set_checking : t -> bool -> unit

(** [claim_fresh ctx t] bump-allocates a never-used slot and installs its
    mutable field cells, all 0 (until then the slot has none).
    @raise Arena_full when the arena is exhausted.
    @raise Out_of_memory when the heap's record budget is exhausted. *)
val claim_fresh : Runtime.Ctx.t -> t -> Ptr.t

(** [claim_recycled ctx t] pops a freed slot from the lock-free free list;
    [None] when it is empty.
    @raise Out_of_memory when the heap's record budget is exhausted (the
    slot is returned to the free list first). *)
val claim_recycled : Runtime.Ctx.t -> t -> Ptr.t option

val budget : t -> budget

(** [release ctx t p ~recycle] frees the record.  Its generation is bumped;
    with [recycle] the slot joins the free list for [claim_recycled].
    @raise Double_free on freeing a non-allocated slot or stale pointer. *)
val release : Runtime.Ctx.t -> t -> Ptr.t -> recycle:bool -> unit

(** [validate t p] checks that [p] points to a currently-allocated record of
    the right generation.  @raise Use_after_free otherwise. *)
val validate : t -> Ptr.t -> unit

(** [is_valid t p] is [validate] as a predicate. *)
val is_valid : t -> Ptr.t -> bool

(** Instrumented accesses to mutable (atomic) fields. *)

val read : Runtime.Ctx.t -> t -> Ptr.t -> int -> int

(** [read_opt ctx t p f] is [read] but returns [None] instead of raising on
    a freed or stale pointer — the hook for transactional layers that must
    treat use-after-free as an abort rather than a crash (HTM semantics). *)
val read_opt : Runtime.Ctx.t -> t -> Ptr.t -> int -> int option
val write : Runtime.Ctx.t -> t -> Ptr.t -> int -> int -> unit
val cas : Runtime.Ctx.t -> t -> Ptr.t -> int -> expect:int -> int -> bool

(** Instrumented accesses to constant (plain) fields. *)

val get_const : Runtime.Ctx.t -> t -> Ptr.t -> int -> int
val set_const : Runtime.Ctx.t -> t -> Ptr.t -> int -> int -> unit

(** Uninstrumented accessors for setup and test assertions.  A slot's
    mutable fields exist from its first claim: [peek] on a never-claimed
    slot reads 0.
    @raise Invalid_argument from [poke] on a never-claimed slot. *)

val peek : t -> Ptr.t -> int -> int
val poke : t -> Ptr.t -> int -> int -> unit
val peek_const : t -> Ptr.t -> int -> int

(** Statistics (concurrent-safe counters). *)

val live_records : t -> int
val peak_live : t -> int
val fresh_claims : t -> int
val total_allocs : t -> int
val total_frees : t -> int

(** Bytes of backing memory ever claimed from the bump region — the paper's
    "total amount of memory allocated for records" metric (Fig. 9 right). *)
val bytes_claimed : t -> int

(** Peak simultaneously-live bytes. *)
val bytes_peak : t -> int
