(** Log-bucketed latency histograms over non-negative integers
    (HdrHistogram's bucketing scheme, stripped to what virtual-time
    measurement needs).

    Values below [2^sub_bits] get an exact bucket each; above that, each
    power-of-two range is split into [2^sub_bits] linear sub-buckets, so the
    relative quantization error is bounded by [2^-sub_bits] everywhere.
    Recording is two shifts, a subtract and an array increment — cheap
    enough to run on every simulated operation without distorting host-side
    run time (simulated time is never affected; see DESIGN.md §8). *)

type t

val create : ?sub_bits:int -> unit -> t
(** [create ()] uses [sub_bits = 5] (at most ~3% relative error).
    Raises [Invalid_argument] outside [1..16]. *)

val record : t -> int -> unit
(** Record one value.  Negative values clamp to 0. *)

val count : t -> int
val min_value : t -> int
(** 0 when empty. *)

val max_value : t -> int
val mean : t -> float
val total : t -> int
(** Sum of recorded values (as quantized by the buckets). *)

val quantile : t -> float -> int
(** [quantile t q] for [q] in [0,1]: the smallest representative value [v]
    such that at least [q * count] recorded values are [<= v].  Returns the
    bucket's midpoint, so it can differ from an exact sorted-sample
    quantile by at most the bucket width.  0 when empty. *)

val percentiles : t -> (float * int) list
(** The standard report row: p50, p90, p99, p99.9 as
    [(50.0, v); (90.0, v); ...]. *)

val percentile_key : float -> string
(** A percentile's report key: [50.0] is ["p50"], [99.9] is ["p999"]. *)

val merge_into : t -> into:t -> unit
(** Add every recorded value of the first histogram into [into].  The two
    must share [sub_bits]; raises [Invalid_argument] otherwise. *)

val clear : t -> unit
