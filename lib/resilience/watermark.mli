(** Per-shard limbo-watermark admission with hysteresis: a limbo gauge
    crossing [elevated] triggers rate-limited emergency reclamation,
    crossing [brownout] sheds sheddable work; each mode exits at 3/4 of
    its entry threshold so the level cannot flap per observation. *)

type level = Normal | Elevated | Brownout

val level_name : level -> string

type config = {
  elevated_hi : int;
  elevated_lo : int;
  brownout_hi : int;
  brownout_lo : int;
  escalate_every : int;  (** min cycles between escalations *)
}

val config : elevated:int -> brownout:int -> escalate_every:int -> config
(** Entry thresholds; exits default to 3/4 of each.  Raises
    [Invalid_argument] unless [1 <= elevated < brownout]. *)

type t
(** One shard's controller: its level plus its escalation record. *)

val create : config -> t

val observe : t -> int -> level
(** Feed one gauge reading; returns the (possibly changed) level. *)

val admit :
  t ->
  Runtime.Ctx.t ->
  limbo:int ->
  escalate:(Runtime.Ctx.t -> int) ->
  sheddable:bool ->
  (unit -> unit) ->
  Loadgen.outcome
(** Run one request against the shard: observe [limbo]; at Elevated or
    above call [escalate] (emergency reclamation, returning records
    freed) unless one ran within the last [escalate_every] cycles; at
    Brownout answer a [sheddable] request [Shed]; otherwise run it —
    [Served], or [Failed] when it raises an arena allocation failure.
    Anything else propagates. *)

val level : t -> level
val escalations : t -> int
(** Normal -> Elevated transitions. *)

val brownouts : t -> int
(** Transitions into Brownout. *)

val escalate_calls : t -> int
(** Emergency reclamations {!admit} ran. *)

val escalate_freed : t -> int
(** Records those reclamations freed. *)
