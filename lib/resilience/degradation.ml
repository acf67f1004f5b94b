(** Degradation report for an overload campaign cell.

    An E-overload cell runs an open-loop workload whose arrival process
    contains a load spike ([Arrivals.Spike]); the report splits the
    request stream into three phases by {e scheduled arrival time} —
    pre-burst, burst, post-burst — and judges three things:

    - {e limbo bound}: the maximum sampled per-shard limbo population
      must stay at or below the scheme's theoretical bound
      (campaign-supplied; E-overload passes the paper's bound,
      [Reclaim.Registry.paper_bound]);
    - {e goodput floor}: the {e served rate} (requests completed per
      unit time) in the worst phase must be at least [floor_pct]% of the
      pre-burst served rate.  Rate, not served/demand: an open-loop
      spike can exceed raw capacity many times over, and the service's
      job is to keep completing work near capacity while it sheds the
      excess — the failure mode guarded against is goodput
      {e collapse} (a pinned shard, congestion on the survivors), not
      the arithmetic fact that demand outran capacity;
    - {e recovery}: after the burst ends, the non-served rate must
      return below a small tolerance within a recovery budget.  Outcomes
      are bucketed by due time; the recovery point is the end of the
      last post-burst bucket where more than [tolerance_pct]% (and at
      least [min_bad]) of its requests went unserved — a rate, not a
      last-bad-request timestamp, because one stray shed scan must not
      read as "never recovered".  A shard whose limbo a corpse pins
      stays in brownout and sheds a constant fraction forever, so its
      bad buckets run to the end of the schedule and blow any budget.

    Phase classification is by due time, not completion time: a request
    scheduled during the burst that drains late still belongs to the
    burst phase, so queue-drain lag shows up as slow recovery rather
    than as a polluted post-phase. *)

type phase = Pre | Burst | Post

let phase_name = function Pre -> "pre" | Burst -> "burst" | Post -> "post"
let phases = [ Pre; Burst; Post ]
let phase_index = function Pre -> 0 | Burst -> 1 | Post -> 2

type tally = {
  mutable demand : int;
  mutable served : int;
  mutable shed : int;
  mutable failed : int;
}

let new_tally () = { demand = 0; served = 0; shed = 0; failed = 0 }

(* Recovery-rate thresholds: a bucket is "still degraded" when more than
   [tolerance_pct]% of its requests (and at least [min_bad] in absolute
   terms, so one stray shed in a quiet bucket is noise) went
   unserved. *)
let tolerance_pct = 2
let min_bad = 2

type t = {
  burst_start : int;  (** cycles; spike window from the arrival process *)
  burst_end : int;
  end_of_schedule : int;  (** last scheduled arrival, cycles *)
  bucket_cycles : int;  (** recovery-rate bucket width *)
  tallies : tally array;  (** indexed by {!phase_index} *)
  demand_b : int array;  (** per-bucket demand, indexed by due/bucket *)
  bad_b : int array;  (** per-bucket non-served outcomes *)
  mutable max_limbo : int;  (** max sampled per-shard limbo population *)
}

let create ~burst_start ~burst_end ~end_of_schedule ~bucket_cycles =
  if not (0 < burst_start && burst_start < burst_end) then
    invalid_arg "Degradation.create: want 0 < burst_start < burst_end";
  if bucket_cycles < 1 then
    invalid_arg "Degradation.create: bucket_cycles must be >= 1";
  let nbuckets = (end_of_schedule / bucket_cycles) + 2 in
  {
    burst_start;
    burst_end;
    end_of_schedule;
    bucket_cycles;
    tallies = Array.init 3 (fun _ -> new_tally ());
    demand_b = Array.make nbuckets 0;
    bad_b = Array.make nbuckets 0;
    max_limbo = 0;
  }

let duration t = function
  | Pre -> t.burst_start
  | Burst -> t.burst_end - t.burst_start
  | Post -> max 1 (t.end_of_schedule - t.burst_end)

let phase_of t ~due =
  if due < t.burst_start then Pre else if due < t.burst_end then Burst else Post

let account t ~due (outcome : Loadgen.outcome) =
  let tl = t.tallies.(phase_index (phase_of t ~due)) in
  tl.demand <- tl.demand + 1;
  (match outcome with
  | Served -> tl.served <- tl.served + 1
  | Shed -> tl.shed <- tl.shed + 1
  | Failed -> tl.failed <- tl.failed + 1);
  let b = min (max 0 due / t.bucket_cycles) (Array.length t.demand_b - 1) in
  t.demand_b.(b) <- t.demand_b.(b) + 1;
  if outcome <> Served then t.bad_b.(b) <- t.bad_b.(b) + 1

let observe_limbo t v = if v > t.max_limbo then t.max_limbo <- v

(* Workers on the domains backend each accumulate into a private report
   (shared tallies would race); the driver folds them into one after the
   run.  Phase boundaries must match. *)
let merge dst src =
  if
    dst.burst_start <> src.burst_start
    || dst.burst_end <> src.burst_end
    || dst.bucket_cycles <> src.bucket_cycles
    || Array.length dst.demand_b <> Array.length src.demand_b
  then invalid_arg "Degradation.merge: phase boundaries differ";
  Array.iteri
    (fun i (s : tally) ->
      let d = dst.tallies.(i) in
      d.demand <- d.demand + s.demand;
      d.served <- d.served + s.served;
      d.shed <- d.shed + s.shed;
      d.failed <- d.failed + s.failed)
    src.tallies;
  Array.iteri (fun i v -> dst.demand_b.(i) <- dst.demand_b.(i) + v) src.demand_b;
  Array.iteri (fun i v -> dst.bad_b.(i) <- dst.bad_b.(i) + v) src.bad_b;
  if src.max_limbo > dst.max_limbo then dst.max_limbo <- src.max_limbo

let tally t phase = t.tallies.(phase_index phase)
let max_limbo t = t.max_limbo

let goodput_pct tl =
  if tl.demand = 0 then 100.0
  else 100.0 *. float_of_int tl.served /. float_of_int tl.demand

(** Served requests per cycle in the phase — the goodput the floor
    verdict compares across phases. *)
let served_rate t phase =
  float_of_int (tally t phase).served /. float_of_int (duration t phase)

(** Time from burst end to the end of the last post-burst bucket whose
    non-served rate exceeds the tolerance, in cycles; 0 when the service
    was back under tolerance immediately.  [max_int] would be wrong for
    "never recovers" — a pinned shard keeps producing bad outcomes to
    the end of the run, so its last bad bucket lands at the schedule's
    end and blows any sane budget on its own. *)
let recovery_cycles t =
  let bad_bucket i =
    t.bad_b.(i) >= min_bad
    && t.bad_b.(i) * 100 > tolerance_pct * t.demand_b.(i)
  in
  let rec scan i =
    if i < 0 then 0
    else
      let bucket_start = i * t.bucket_cycles in
      if bucket_start < t.burst_end then 0
      else if bad_bucket i then ((i + 1) * t.bucket_cycles) - t.burst_end
      else scan (i - 1)
  in
  scan (Array.length t.bad_b - 1)

type verdict = {
  limbo_bound : int;
  limbo_ok : bool;
  goodput_floor_pct : float;
      (** worst-phase floor, % of the pre-burst served rate *)
  goodput_ok : bool;
  recovery_budget : int;  (** cycles *)
  recovery_ok : bool;
  passed : bool;
}

let judge t ~limbo_bound ~floor_pct ~recovery_budget =
  let pre = served_rate t Pre in
  (* Phases nothing was scheduled into carry no rate signal. *)
  let active = List.filter (fun p -> (tally t p).demand > 0) phases in
  let worst =
    List.fold_left (fun acc p -> Float.min acc (served_rate t p)) pre active
  in
  let limbo_ok = t.max_limbo <= limbo_bound in
  (* A zero pre-burst rate means the cell was broken before overload;
     fail the floor rather than divide by zero. *)
  let goodput_ok = pre > 0.0 && worst >= pre *. floor_pct /. 100.0 in
  let recovery_ok = recovery_cycles t <= recovery_budget in
  {
    limbo_bound;
    limbo_ok;
    goodput_floor_pct = floor_pct;
    goodput_ok;
    recovery_budget;
    recovery_ok;
    passed = limbo_ok && goodput_ok && recovery_ok;
  }

let tally_fields tl : (string * Telemetry.Json.t) list =
  [
    ("demand", Int tl.demand);
    ("served", Int tl.served);
    ("shed", Int tl.shed);
    ("failed", Int tl.failed);
    ("goodput_pct", Float (goodput_pct tl));
  ]

let fields t verdict : (string * Telemetry.Json.t) list =
  [
    ( "phases",
      Obj
        (List.map
           (fun p ->
             ( phase_name p,
               Telemetry.Json.Obj
                 (tally_fields (tally t p)
                 @ [
                     ( "served_per_mcycle",
                       Telemetry.Json.Float (1e6 *. served_rate t p) );
                   ]) ))
           phases) );
    ("max_limbo", Int t.max_limbo);
    ("limbo_bound", Int verdict.limbo_bound);
    ("limbo_ok", Bool verdict.limbo_ok);
    ("goodput_floor_pct", Float verdict.goodput_floor_pct);
    ("goodput_ok", Bool verdict.goodput_ok);
    ("recovery_cycles", Int (recovery_cycles t));
    ("recovery_budget", Int verdict.recovery_budget);
    ("recovery_ok", Bool verdict.recovery_ok);
    ("passed", Bool verdict.passed);
  ]
