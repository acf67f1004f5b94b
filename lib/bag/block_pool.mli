(** A bounded per-process pool of spare blocks.

    Instead of deallocating a block, a process returns it here; instead of
    allocating, it takes one from here.  The paper reports that a pool of 16
    blocks per process eliminates more than 99.9% of block allocations, so a
    pool keeps 16; the [allocated]/[recycled] counters let the benchmarks
    verify that. *)

type t

val create : block_capacity:int -> unit -> t

(** [get t] returns an empty block, reusing a pooled one when possible. *)
val get : t -> Block.t

(** [put t b] returns [b] (reset) to the pool, or drops it when full. *)
val put : t -> Block.t -> unit

val allocated : t -> int
val recycled : t -> int
