(** Per-shard limbo-watermark admission with hysteresis.

    Tracks one shard's limbo population against two watermark pairs:

    - crossing [elevated_hi] enters {e Elevated}: {!admit} escalates —
      it invokes the shard's emergency reclamation proactively, before
      any allocation fails, at most once per [escalate_every] cycles —
      and drops back to {e Normal} only below [elevated_lo];
    - crossing [brownout_hi] enters {e Brownout}: sheddable requests
      (scans before gets/puts) are shed outright until the gauge falls
      below [brownout_lo].

    The lo/hi split is the hysteresis: without it a gauge hovering at one
    threshold would flap the mode on every observation, shedding and
    unshedding request-by-request.

    Escalation is the measurement the overload campaign's verdicts rest
    on: a shard whose reclamation a corpse pins (plain epochs) escalates
    over and over and frees nothing, while a scheme that neutralizes the
    corpse frees on escalation and leaves the watermark. *)

type level = Normal | Elevated | Brownout

let level_name = function
  | Normal -> "normal"
  | Elevated -> "elevated"
  | Brownout -> "brownout"

type config = {
  elevated_hi : int;
  elevated_lo : int;
  brownout_hi : int;
  brownout_lo : int;
  escalate_every : int;  (** min cycles between escalations *)
}

let config ~elevated ~brownout ~escalate_every =
  if elevated < 1 || brownout <= elevated then
    invalid_arg "Watermark.config: want 1 <= elevated < brownout";
  {
    elevated_hi = elevated;
    elevated_lo = (elevated * 3) / 4;
    brownout_hi = brownout;
    brownout_lo = (brownout * 3) / 4;
    escalate_every;
  }

type t = {
  cfg : config;
  mutable level : level;
  mutable escalations : int;  (** Normal -> Elevated transitions *)
  mutable brownouts : int;  (** Elevated -> Brownout transitions *)
  mutable last_escalate : int;
  mutable escalate_calls : int;
  mutable escalate_freed : int;
}

let create cfg =
  {
    cfg;
    level = Normal;
    escalations = 0;
    brownouts = 0;
    (* Not min_int: [now - last_escalate] must not overflow. *)
    last_escalate = -cfg.escalate_every;
    escalate_calls = 0;
    escalate_freed = 0;
  }

let level t = t.level
let escalations t = t.escalations
let brownouts t = t.brownouts
let escalate_calls t = t.escalate_calls
let escalate_freed t = t.escalate_freed

let observe t v =
  (* A gauge can jump several thresholds between observations (a retire
     burst lands all at once), so entry is judged against the reading,
     not one level per call: Normal goes straight to Brownout when the
     reading warrants it. *)
  (match t.level with
  | Normal ->
      if v >= t.cfg.elevated_hi then begin
        t.level <- Elevated;
        t.escalations <- t.escalations + 1;
        if v >= t.cfg.brownout_hi then begin
          t.level <- Brownout;
          t.brownouts <- t.brownouts + 1
        end
      end
  | Elevated ->
      if v >= t.cfg.brownout_hi then begin
        t.level <- Brownout;
        t.brownouts <- t.brownouts + 1
      end
      else if v <= t.cfg.elevated_lo then t.level <- Normal
  | Brownout -> if v <= t.cfg.brownout_lo then t.level <- Elevated);
  t.level

let admit t ctx ~limbo ~escalate ~sheddable f : Loadgen.outcome =
  let level = observe t limbo in
  (if level <> Normal then
     let now = Runtime.Ctx.now ctx in
     if now - t.last_escalate >= t.cfg.escalate_every then begin
       t.last_escalate <- now;
       t.escalate_calls <- t.escalate_calls + 1;
       t.escalate_freed <- t.escalate_freed + escalate ctx
     end);
  if level = Brownout && sheddable then Shed
  else
    match f () with
    | () -> Served
    | exception (Memory.Arena.Out_of_memory _ | Memory.Arena.Arena_full _) ->
        Failed
