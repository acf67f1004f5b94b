(** The telemetry recorder: one object that a trial threads through the
    simulator tick hook, the SMR event stream and the operation loop, and that
    renders everything it collected as a metrics JSON document and
    (optionally) a Chrome trace.

    Three collection channels, all host-side (recording never costs
    simulated cycles — see DESIGN.md §8):

    - {b Latency histograms.}  {!local_op} records one completed
      data-structure operation into its process' buffer: virtual-cycle
      duration converted to simulated nanoseconds into a per-kind
      log-bucketed histogram, plus (when tracing) an ["X"] span on the
      process' track; {!merge_locals} folds the buffers together after the
      run.
    - {b Time series.}  {!tick}, driven by [Sim.run ~tick], reads every
      registered gauge and appends one sample per series.  Gauges are
      uninstrumented reads of simulation state (limbo populations, epoch
      lag, pool occupancy, bytes in use) performed in scheduler context.
    - {b Event counters.}  {!on_event}, subscribed to the group's probes
      for the heap's {!Memory.Smr_event}s, counts lifecycle traffic
      (allocs, frees, retires, pool puts and takes) and the reclamation
      control plane (epoch advances, neutralization signals, sweeps);
      control-plane events also become trace instants. *)

type t

val create :
  ?sample_every:int ->
  ?max_samples:int ->
  ?trace:Trace.t ->
  cycles_per_ns:float ->
  nprocs:int ->
  unit ->
  t
(** [sample_every] (default 50_000 cycles) is the gauge sampling period the
    trial should pass to [Sim.run ~tick].  [max_samples] (default 512)
    bounds every gauge's retained series: once that many samples have
    accumulated, the series is thinned to every other sample and the keep
    stride doubles, so memory stays bounded and coverage stays uniform no
    matter how long the run — the scale-safety property 1024-context trials
    rely on.  [trace], when given, receives op spans and control-plane
    instants; process tracks are named at creation.  Raises
    [Invalid_argument] if [cycles_per_ns <= 0], [sample_every <= 0] or
    [max_samples < 2]. *)

val sample_every : t -> int
val nprocs : t -> int
val trace : t -> Trace.t option

val add_gauge : t -> name:string -> (unit -> int array) -> unit
(** Register a per-process gauge (a scalar gauge returns a 1-element
    array).  Sampled on every {!tick}. *)

val add_counter : t -> name:string -> (unit -> int) -> unit
(** Register an external monotone counter (reclamation pressure, shed
    totals).  Not sampled: the getter is read when
    {!counters} / {!metrics_json} render, and the value is appended after
    the event counters in registration order. *)

val tick : t -> int -> unit
(** Sample all gauges at virtual time [now] (cycles).  Only every
    [stride]-th call is kept (the stride starts at 1 and doubles whenever
    [max_samples] is reached); a skipped call costs one increment and one
    compare — no gauge reads, no allocation. *)

val on_event : t -> Runtime.Ctx.t -> Memory.Smr_event.t -> unit
(** The event callback to subscribe with
    [Runtime.Ctx.subscriber ~scope:(Memory.Heap.scope heap) ~event]. *)

(** {2 Per-process buffers}

    Every process records into its own {!local} buffer with no
    synchronization — on the domains backend many workers record
    concurrently — and {!merge_locals} folds every buffer into the shared
    per-kind histograms once, after the run.  When a trace is attached,
    trace emission (a shared buffer) serializes on one mutex shared by the
    locals; histogram recording never does. *)

type local

val locals : t -> local array
(** One buffer per process, indexed by pid. *)

val local_op : local -> kind:string -> start:int -> finish:int -> unit
(** Record one completed operation ([start]/[finish] in backend cycles)
    into this process' buffer. *)

val merge_locals : t -> local array -> unit
(** Fold every buffer's histograms into the recorder's shared table (same
    bucketing, so the merge is exact).  Call once, after all recording
    processes have finished. *)

val histogram : t -> string -> Histogram.t option
(** The latency histogram (in simulated ns) for an operation kind. *)

val latency_percentiles : t -> (string * (float * int) list) list
(** Per kind (sorted), the p50/p90/p99/p99.9 row in simulated ns. *)

val series : t -> (string * (int * int array) list) list
(** Per gauge, samples in chronological order as [(now, values)]. *)

val series_total : t -> string -> (int * int) list
(** A gauge's samples summed across processes — the limbo time-series view
    the E-stall experiment plots. *)

val counters : t -> (string * int) list
(** Event counters, fixed order: allocs, frees, retires, pool_puts,
    pool_takes, epoch_advances, signals_sent, sweeps, records_swept —
    followed by any {!add_counter} registrations in registration order. *)

val metrics_json : t -> Json.t
(** Everything above as one JSON object:
    [{ "sample_every": _, "counters": {...},
       "latency_ns": { kind: {count,min,max,mean,p50,p90,p99,p999} },
       "series": { name: {"t": [...], "values": [[per-proc]...]} } }]. *)

val write_metrics : t -> string -> unit
(** Render {!metrics_json} to a file. *)
