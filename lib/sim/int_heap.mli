(** Mutable min-heap of (key, value) int pairs, ordered lexicographically —
    smallest key first, smallest value among equal keys.  O(log n) push and
    pop-min, O(1) min; nothing is allocated except when the arrays double.

    The scheduler uses two kinds of instance with lazy deletion (stale
    entries are skipped at the top rather than removed in place): the
    minimum-time core queue keyed (core clock, core index) — the
    lexicographic tie-break reproduces the old linear scan's
    lowest-index-wins rule — and per-core wake-up queues keyed
    (wake time, pid).  Equal pairs are interchangeable, so the minimum a
    caller observes is fully determined by the pairs pushed and popped. *)

type t

val create : unit -> t
val is_empty : t -> bool
val push : t -> int -> int -> unit

(** The key and the value of the minimum pair.  Raise [Invalid_argument]
    on the empty heap. *)
val min_key : t -> int

val min_value : t -> int

(** Drop the minimum pair.  Raises [Invalid_argument] on the empty heap. *)
val pop_min : t -> unit
