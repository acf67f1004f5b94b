(** A lock-free shared bag of individual record pointers (a Treiber stack of
    cons cells).  Classical EBR uses one of these per epoch as its shared
    limbo bag — which is exactly the per-retire synchronization cost DEBRA's
    private bags eliminate. *)

type t

val create : unit -> t
val push : Runtime.Ctx.t -> t -> int -> unit
val pop : Runtime.Ctx.t -> t -> int option

(** [drain ctx t f] pops until empty, applying [f ctx]; returns the count.
    Passing [ctx] on lets a caller bind [f] once instead of per drain. *)
val drain : Runtime.Ctx.t -> t -> (Runtime.Ctx.t -> int -> unit) -> int

(** Uninstrumented size, O(n); for tests and memory accounting. *)
val size : t -> int
