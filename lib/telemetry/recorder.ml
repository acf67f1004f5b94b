type gauge = {
  gname : string;
  read : unit -> int array;
  mutable samples : (int * int array) list;  (* newest first *)
}

(* Event counters: a flat record, bumped on the emission path when
   telemetry is subscribed — no hashing, no allocation. *)
type counts = {
  mutable allocs : int;
  mutable frees : int;
  mutable retires : int;
  mutable pool_puts : int;
  mutable pool_takes : int;
  mutable epoch_advances : int;
  mutable signals_sent : int;
  mutable sweeps : int;
  mutable records_swept : int;
}

type t = {
  sample_every : int;
  max_samples : int;
  cycles_per_ns : float;
  nprocs : int;
  trace : Trace.t option;
  mutable ticks : int;  (* tick calls seen, kept or not *)
  mutable stride : int;  (* keep every [stride]-th tick; doubles on overflow *)
  mutable kept : int;  (* samples currently retained per (full) gauge *)
  mutable gauges : gauge list;  (* registration order *)
  mutable hists : (string * Histogram.t) list;  (* per op kind, sorted *)
  counts : counts;
  mutable extra_counters : (string * (unit -> int)) list;
      (* externally registered counter getters (reclamation pressure,
         shed totals, ...), read at render time; registration order *)
}

let create ?(sample_every = 50_000) ?(max_samples = 512) ?trace ~cycles_per_ns
    ~nprocs () =
  if cycles_per_ns <= 0.0 then
    invalid_arg "Recorder.create: cycles_per_ns must be positive";
  if sample_every <= 0 then
    invalid_arg "Recorder.create: sample_every must be positive";
  if max_samples < 2 then
    invalid_arg "Recorder.create: max_samples must be >= 2";
  (match trace with
  | None -> ()
  | Some tr ->
      for pid = 0 to nprocs - 1 do
        Trace.thread_name tr ~pid (Printf.sprintf "process %d" pid)
      done);
  {
    sample_every;
    max_samples;
    cycles_per_ns;
    nprocs;
    trace;
    ticks = 0;
    stride = 1;
    kept = 0;
    gauges = [];
    hists = [];
    counts =
      {
        allocs = 0;
        frees = 0;
        retires = 0;
        pool_puts = 0;
        pool_takes = 0;
        epoch_advances = 0;
        signals_sent = 0;
        sweeps = 0;
        records_swept = 0;
      };
    extra_counters = [];
  }

let sample_every t = t.sample_every
let nprocs t = t.nprocs
let trace t = t.trace

let add_gauge t ~name read =
  t.gauges <- t.gauges @ [ { gname = name; read; samples = [] } ]

let add_counter t ~name read = t.extra_counters <- t.extra_counters @ [ (name, read) ]

(* Keep the samples at even positions counted from the oldest — they sit on
   multiples of the doubled stride, so future kept ticks stay aligned. *)
let thin samples =
  let l = List.length samples in
  List.filteri (fun i _ -> (l - 1 - i) mod 2 = 0) samples

(* Decimating bounded sampler: a skipped tick costs one increment and one
   compare — no gauge reads, no allocation — so the per-tick hook stays
   scale-safe at thousands of contexts.  When [max_samples] samples have
   accumulated, every gauge's series is thinned to every other sample and
   the stride doubles, keeping memory bounded and coverage uniform over the
   whole run regardless of its length. *)
let tick t now =
  let i = t.ticks in
  t.ticks <- i + 1;
  if i mod t.stride = 0 then begin
    List.iter (fun g -> g.samples <- (now, g.read ()) :: g.samples) t.gauges;
    t.kept <- t.kept + 1;
    if t.kept >= t.max_samples then begin
      List.iter (fun g -> g.samples <- thin g.samples) t.gauges;
      t.kept <- (t.kept + 1) / 2;
      t.stride <- t.stride * 2
    end
  end

let ns_of t cycles = int_of_float (float_of_int cycles /. t.cycles_per_ns)

(* Kinds stay sorted, so the report does not depend on which process
   recorded a kind first. *)
let hist_for t kind =
  match List.assoc_opt kind t.hists with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      t.hists <-
        List.sort (fun (a, _) (b, _) -> compare a b) ((kind, h) :: t.hists);
      h

(* Per-process recording buffers, the one recording path on every backend:
   each process records into its own histogram table with no
   synchronization, and the tables are folded into the shared per-kind
   histograms once, after the run.  Only trace emission — a shared
   append-only buffer, active only when a trace is attached — serializes,
   on one mutex shared by all locals. *)

type local = {
  l_pid : int;
  l_owner : t;
  mutable l_hists : (string * Histogram.t) list;
  l_trace_mutex : Mutex.t option;
}

let locals t =
  let tm = match t.trace with None -> None | Some _ -> Some (Mutex.create ()) in
  Array.init t.nprocs (fun pid ->
      { l_pid = pid; l_owner = t; l_hists = []; l_trace_mutex = tm })

let local_hist l kind =
  match List.assoc_opt kind l.l_hists with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      l.l_hists <- l.l_hists @ [ (kind, h) ];
      h

let local_op l ~kind ~start ~finish =
  Histogram.record (local_hist l kind) (ns_of l.l_owner (finish - start));
  match (l.l_owner.trace, l.l_trace_mutex) with
  | Some tr, Some m ->
      Mutex.lock m;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock m)
        (fun () ->
          Trace.complete tr ~pid:l.l_pid ~name:kind ~cat:"op" ~start ~finish)
  | _ -> ()

let merge_locals t ls =
  Array.iter
    (fun l ->
      List.iter
        (fun (kind, h) -> Histogram.merge_into h ~into:(hist_for t kind))
        l.l_hists)
    ls

let on_event t =
  let c = t.counts in
  fun (ctx : Runtime.Ctx.t) (ev : Memory.Smr_event.t) ->
    match ev with
    | Memory.Smr_event.Alloc _ -> c.allocs <- c.allocs + 1
    | Free _ -> c.frees <- c.frees + 1
    | Retire _ -> c.retires <- c.retires + 1
    | Pool_put _ -> c.pool_puts <- c.pool_puts + 1
    | Pool_take _ -> c.pool_takes <- c.pool_takes + 1
    | Epoch_advance e -> (
        c.epoch_advances <- c.epoch_advances + 1;
        match t.trace with
        | None -> ()
        | Some tr ->
            Trace.instant tr ~pid:ctx.Runtime.Ctx.pid ~name:"epoch_advance"
              ~cat:"smr"
              ~at:(Runtime.Ctx.now ctx)
              ~args:[ ("epoch", Json.Int e) ]
              ())
    | Signal_sent target -> (
        c.signals_sent <- c.signals_sent + 1;
        match t.trace with
        | None -> ()
        | Some tr ->
            Trace.instant tr ~pid:ctx.Runtime.Ctx.pid ~name:"neutralize_signal"
              ~cat:"smr"
              ~at:(Runtime.Ctx.now ctx)
              ~args:[ ("target", Json.Int target) ]
              ())
    | Sweep released -> (
        c.sweeps <- c.sweeps + 1;
        c.records_swept <- c.records_swept + released;
        match t.trace with
        | None -> ()
        | Some tr ->
            Trace.instant tr ~pid:ctx.Runtime.Ctx.pid ~name:"sweep" ~cat:"smr"
              ~at:(Runtime.Ctx.now ctx)
              ~args:[ ("released", Json.Int released) ]
              ())
    | Access _ | Protect _ | Unprotect _ | Unprotect_all | Enter_q | Leave_q
    | Rprotect _ | Runprotect_all ->
        ()

let histogram t kind = List.assoc_opt kind t.hists

let latency_percentiles t =
  List.map (fun (kind, h) -> (kind, Histogram.percentiles h)) t.hists

let series t = List.map (fun g -> (g.gname, List.rev g.samples)) t.gauges

let series_total t name =
  match List.find_opt (fun g -> g.gname = name) t.gauges with
  | None -> []
  | Some g ->
      List.rev_map
        (fun (now, vs) -> (now, Array.fold_left ( + ) 0 vs))
        g.samples

let counters t =
  let c = t.counts in
  [
    ("allocs", c.allocs);
    ("frees", c.frees);
    ("retires", c.retires);
    ("pool_puts", c.pool_puts);
    ("pool_takes", c.pool_takes);
    ("epoch_advances", c.epoch_advances);
    ("signals_sent", c.signals_sent);
    ("sweeps", c.sweeps);
    ("records_swept", c.records_swept);
  ]
  @ List.map (fun (name, read) -> (name, read ())) t.extra_counters

let hist_json h =
  Json.Obj
    ([
       ("count", Json.Int (Histogram.count h));
       ("min", Json.Int (Histogram.min_value h));
       ("max", Json.Int (Histogram.max_value h));
       ("mean", Json.Float (Histogram.mean h));
     ]
    @ List.map
        (fun (p, v) -> (Histogram.percentile_key p, Json.Int v))
        (Histogram.percentiles h))

let series_json g =
  let samples = List.rev g.samples in
  Json.Obj
    [
      ("t", Json.List (List.map (fun (now, _) -> Json.Int now) samples));
      ( "values",
        Json.List
          (List.map
             (fun (_, vs) ->
               Json.List (Array.to_list (Array.map (fun v -> Json.Int v) vs)))
             samples) );
    ]

let metrics_json t =
  Json.Obj
    [
      ("sample_every", Json.Int t.sample_every);
      ("nprocs", Json.Int t.nprocs);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ( "latency_ns",
        Json.Obj (List.map (fun (kind, h) -> (kind, hist_json h)) t.hists) );
      ("series", Json.Obj (List.map (fun g -> (g.gname, series_json g)) t.gauges));
    ]

let write_metrics t file = Json.to_file file (metrics_json t)
