(** Key-popularity distributions (see the implementation header). *)

type t = Uniform | Zipfian of float  (** theta, YCSB-style *)

val to_string : t -> string

val sampler : t -> nkeys:int -> Random.State.t -> int
(** Draw a key rank in [\[0, nkeys)]; rank 0 is the hottest key. *)
