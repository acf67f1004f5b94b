(** Open-addressing index from int keys (cache line ids) to the slots of
    an owner's flat arrays.  The owner keeps the key of slot [s] at
    [keys.(s)] and passes that array to every call, so lookups touch two
    int arrays and allocate nothing.  Linear probing, load factor at most
    1/2, backward-shift deletion (no tombstones). *)

type t

(** An index sized for [slots] entries. *)
val create : slots:int -> t

(** [find t keys key] is the slot holding [key], or [-1]. *)
val find : t -> int array -> int -> int

(** [add t key slot] records [key] at [slot]; [key] must be absent. *)
val add : t -> int -> int -> unit

(** [remove t keys key] deletes [key] and returns its slot, or [-1] if it
    was absent.  [keys] must still hold [key] at that slot. *)
val remove : t -> int array -> int -> int

val clear : t -> unit

(** [grow t keys ~slots] resizes for [slots] entries, rehashing every
    entry through [keys] (the owner's already-grown key array). *)
val grow : t -> int array -> slots:int -> unit
