(** Fixed-capacity fully-associative LRU cache of line ids, with an eviction
    callback so the coherence directory stays consistent.  Storage grows by
    doubling up to [cap] and is never allocated on a touch after that. *)

type t

val create : cap:int -> on_evict:(int -> unit) -> t
val mem : t -> int -> bool

(** [touch t line] inserts [line] (evicting the least recently used line if
    at capacity) or refreshes its recency. *)
val touch : t -> int -> unit

(** [refresh t line] makes [line] most recently used and returns [true] if
    it is cached; otherwise it changes nothing and returns [false].  One
    index lookup: the hit half of [touch]. *)
val refresh : t -> int -> bool

(** [add t line] inserts [line], which must not be cached, evicting the
    least recently used line if at capacity: the miss half of [touch]. *)
val add : t -> int -> unit

(** [remove t line] drops [line] without invoking the eviction callback
    (used for coherence invalidations, which update the directory
    themselves). *)
val remove : t -> int -> unit

val size : t -> int
val clear : t -> unit
