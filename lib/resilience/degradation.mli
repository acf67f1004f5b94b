(** Degradation report for an overload campaign cell: splits the request
    stream into pre-burst / burst / post-burst phases by scheduled
    arrival time, tallies outcomes and goodput per phase, tracks the
    maximum sampled shard limbo, and judges three machine-checked
    verdicts — limbo bound held, worst-phase goodput floor, and
    time-to-recover after the burst. *)

type phase = Pre | Burst | Post

val phase_name : phase -> string
val phases : phase list

type tally = {
  mutable demand : int;
  mutable served : int;
  mutable shed : int;
  mutable failed : int;
}

type t

val create :
  burst_start:int -> burst_end:int -> end_of_schedule:int -> bucket_cycles:int -> t
(** Phase boundaries in backend cycles: the arrival process's spike
    window, plus the last scheduled arrival (the post phase's duration
    for rate computation).  [bucket_cycles] is the width of the
    recovery-rate buckets (see {!recovery_cycles}).  Raises
    [Invalid_argument] unless [0 < burst_start < burst_end] and
    [bucket_cycles >= 1]. *)

val phase_of : t -> due:int -> phase

val account : t -> due:int -> Loadgen.outcome -> unit
(** Record one request's outcome in the phase of its scheduled arrival. *)

val observe_limbo : t -> int -> unit
(** Feed one per-shard limbo-population sample. *)

val merge : t -> t -> unit
(** [merge dst src] folds a per-worker report into [dst] (domains-backend
    accumulation).  Raises [Invalid_argument] when the phase boundaries
    differ. *)

val tally : t -> phase -> tally
val max_limbo : t -> int

val served_rate : t -> phase -> float
(** Served requests per cycle — the goodput the floor verdict compares
    across phases (rate, not served/demand: an open-loop spike can
    exceed capacity many-fold; the layer's job is to keep completing
    work, not to out-serve infinite demand). *)

val recovery_cycles : t -> int
(** Cycles from burst end to the end of the last post-burst bucket whose
    non-served rate exceeds a small tolerance (2%, and at least 2
    requests); 0 when the service was back under tolerance immediately.
    A rate rather than a last-bad-request timestamp: one stray shed scan
    must not read as "never recovered". *)

type verdict = {
  limbo_bound : int;
  limbo_ok : bool;
  goodput_floor_pct : float;
      (** worst-phase floor, % of the pre-burst served rate *)
  goodput_ok : bool;
  recovery_budget : int;
  recovery_ok : bool;
  passed : bool;
}

val judge :
  t -> limbo_bound:int -> floor_pct:float -> recovery_budget:int -> verdict

val fields : t -> verdict -> (string * Telemetry.Json.t) list
(** Row fields: per-phase tallies nested under ["phases"], then the
    verdict's scalars. *)
