(** Metric definitions, the per-repetition record every workload returns,
    and the statistics the report is built from.

    The definitions here are the ones [BENCHMARK.json] lists; the test
    suite checks the two agree. *)

type better = Higher | Lower

type def = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** end-to-end only: allowed worsening, share of median *)
}

let e2e name unit_ better bound = { name; unit_; better; bound }
let layer name unit_ better = { name; unit_; better; bound = 0. }

(* Every end-to-end metric is reported on every workload, in the unit of
   work that workload completes: a set operation, a KV request, or an
   explored schedule.  The wall-clock bounds are wide because the host's
   speed drifts between runs (benchmark/README.md); set-up keeps the
   largest bound. *)
let end_to_end =
  [
    e2e "throughput_mops" "Mops/s" Higher 0.24;
    e2e "op_p50_us" "us" Lower 0.24;
    e2e "op_p99_us" "us" Lower 0.24;
    e2e "peak_mib" "MiB" Lower 0.10;
    e2e "setup_s" "s" Lower 0.25;
  ]

let per_layer =
  [
    layer "ds.self_ns_per_op" "ns/op" Lower;
    layer "ds.accesses_per_op" "count/op" Lower;
    layer "ds.cas_success_ratio" "ratio" Higher;
    layer "rm.acquire_fail_ratio" "ratio" Lower;
    layer "rm.alloc_retries" "count" Lower;
    layer "reclaimer.emergency_reclaims" "count" Lower;
    layer "reclaimer.quiesce_ns_per_op" "ns/op" Lower;
    layer "reclaimer.protect_ns_per_op" "ns/op" Lower;
    layer "reclaimer.protect_calls_per_op" "count/op" Lower;
    layer "reclaimer.retire_ns_per_op" "ns/op" Lower;
    layer "reclaimer.retire_p99_ns" "ns" Lower;
    layer "reclaimer.limbo_peak" "records" Lower;
    layer "reclaimer.neutralized" "count" Lower;
    layer "pool.allocate_ns_per_op" "ns/op" Lower;
    layer "pool.release_ns_per_op" "ns/op" Lower;
    layer "pool.hit_ratio" "ratio" Higher;
    layer "alloc.allocate_per_op" "count/op" Lower;
    layer "alloc.ns_per_op" "ns/op" Lower;
    layer "gc.minor_words_per_op" "words/op" Lower;
    layer "gc.minor_collections_per_s" "1/s" Lower;
    layer "exec.spawn_join_ms" "ms" Lower;
    layer "sim.switches_per_op" "count/op" Lower;
    layer "sim.accesses_per_wall_s" "1/s" Higher;
    layer "kv.get_ns" "ns" Lower;
    layer "kv.put_ns" "ns" Lower;
    layer "kv.delete_ns" "ns" Lower;
    layer "kv.shard_max_share" "ratio" Lower;
    layer "loadgen.late_p99_us" "us" Lower;
    layer "explore.schedules" "count" Lower;
    layer "explore.branch_points" "count" Lower;
    layer "explore.schedules_per_s" "1/s" Higher;
    layer "trace.overhead_pct" "%" Lower;
    layer "trace.virtual_delta" "count" Lower;
  ]

(* Per-layer metrics taken from the untraced repetitions: tracing itself
   allocates (trace events, histogram totals), which would inflate them. *)
let untraced_layers = [ "gc.minor_words_per_op"; "gc.minor_collections_per_s" ]

(** One repetition of one workload. *)
type rep = {
  setup_s : float;  (** wall s from the start of the repetition to its first timed unit *)
  units : int;  (** completed operations, requests or schedules *)
  wall_s : float;  (** wall s the measured units took *)
  p50_us : float;  (** per-unit latency, in the workload's clock *)
  p99_us : float;
  peak_mib : float;
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks *)
  layers : (string * float) list;
  virtual_values : int array;
      (** the outcome a deterministic workload must repeat exactly (what
          the simulator's clock decided, the explored schedule counts);
          empty on domains *)
  spans : Span.pid array;  (** a traced repetition's recorded spans *)
}

let throughput r = float_of_int r.units /. r.wall_s /. 1e6

let e2e_value r = function
  | "throughput_mops" -> throughput r
  | "op_p50_us" -> r.p50_us
  | "op_p99_us" -> r.p99_us
  | "peak_mib" -> r.peak_mib
  | "setup_s" -> r.setup_s
  | m -> invalid_arg ("Metrics.e2e_value: " ^ m)

(* Statistics, matching Python's [statistics.median] and
   [statistics.quantiles(values, n=4)] (the default exclusive method). *)

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

type summary = { med : float; q1 : float; q3 : float; n : int }

let summarize xs =
  let q1, q3 = quartiles xs in
  { med = median xs; q1; q3; n = List.length xs }

(** Quartile distance as a share of the median. *)
let spread s = if s.med = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.med

(** How much worse [b] is than [a], as a share of [a] (negative: better). *)
let worsening def ~a ~b =
  if a = 0. then 0.
  else
    match def.better with
    | Lower -> (b -. a) /. Float.abs a
    | Higher -> (a -. b) /. Float.abs a

(* Exact percentile of a sample (nearest rank). *)
let percentile (a : int array) ~len q =
  if len = 0 then 0
  else begin
    let s = Array.sub a 0 len in
    Array.sort compare s;
    s.(max 0 (min (len - 1) (int_of_float (ceil (q *. float_of_int len)) - 1)))
  end

(** Per-layer metrics derived from a traced run's span summary: self times
    net of the probes' own cost, per root span.  [ns_of_ticks] converts
    the workload clock to nanoseconds (virtual on the simulator). *)
let span_layers (s : Span.summary) ~ns_of_ticks =
  let ops = float_of_int (max 1 s.Span.s_roots) in
  let per_op ticks = ns_of_ticks ticks /. ops in
  let self k = Span.net_self s k in
  let count k = s.Span.s_count.(k) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let c k = s.Span.s_counters.(k) in
  let root_self =
    self Span.k_op +. self Span.k_kv_get +. self Span.k_kv_put
    +. self Span.k_kv_delete +. self Span.k_schedule
  in
  let p kind q =
    ns_of_ticks (float_of_int (Telemetry.Histogram.quantile s.Span.s_hist.(kind) q))
  in
  [
    ("ds.self_ns_per_op", per_op root_self);
    ("ds.cas_success_ratio", ratio (c Span.c_cas_ok) (c Span.c_cas));
    ("rm.acquire_fail_ratio", ratio (c Span.c_acquire_fail) (c Span.c_acquire));
    ("reclaimer.quiesce_ns_per_op", per_op (self Span.k_leave +. self Span.k_enter));
    ( "reclaimer.protect_ns_per_op",
      per_op (self Span.k_protect +. self Span.k_unprotect) );
    ("reclaimer.protect_calls_per_op", float_of_int (count Span.k_protect) /. ops);
    ("reclaimer.retire_ns_per_op", per_op (self Span.k_retire));
    ("reclaimer.retire_p99_ns", p Span.k_retire 0.99);
    ("reclaimer.limbo_peak", float_of_int s.Span.s_limbo_peak);
    ("pool.allocate_ns_per_op", per_op (self Span.k_pool_allocate));
    ("pool.release_ns_per_op", per_op (self Span.k_pool_release));
    ( "pool.hit_ratio",
      if count Span.k_pool_allocate = 0 then 0.
      else 1. -. ratio (count Span.k_alloc_allocate) (count Span.k_pool_allocate) );
    ("alloc.allocate_per_op", float_of_int (count Span.k_alloc_allocate) /. ops);
    ( "alloc.ns_per_op",
      per_op (self Span.k_alloc_allocate +. self Span.k_alloc_deallocate) );
    ("kv.get_ns", if count Span.k_kv_get = 0 then 0. else p Span.k_kv_get 0.5);
    ("kv.put_ns", if count Span.k_kv_put = 0 then 0. else p Span.k_kv_put 0.5);
    ( "kv.delete_ns",
      if count Span.k_kv_delete = 0 then 0. else p Span.k_kv_delete 0.5 );
  ]

(** Layer metrics every run can read without tracing: Record Manager
    pressure counters and the contexts' access statistics. *)
let context_layers group ~ops ~(pressure : Reclaim.Intf.Pressure.t) =
  let stat f = float_of_int (Runtime.Group.sum_stats group f) in
  let ops = float_of_int (max 1 ops) in
  [
    ( "ds.accesses_per_op",
      stat (fun s -> Runtime.Ctx.stats_total_accesses s) /. ops );
    ("rm.alloc_retries", float_of_int pressure.Reclaim.Intf.Pressure.alloc_retries);
    ( "reclaimer.emergency_reclaims",
      float_of_int pressure.Reclaim.Intf.Pressure.emergency_reclaims );
    ("reclaimer.neutralized", stat (fun s -> s.Runtime.Ctx.neutralized));
  ]

(** Monotonic nanoseconds: the domains workloads' clock. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
