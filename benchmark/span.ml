(** Per-process span recording for the traced benchmark runs.

    Every timing functor ({!Timed}) and every workload loop brackets the
    call it measures with {!enter} and {!leave}.  Spans nest on a per-pid
    stack; when a span closes, its self time (duration minus the time its
    child spans covered) and its inclusive time go into per-pid, per-kind
    totals, and into a {!Telemetry.Histogram} for the kinds a metric reads
    a distribution of.  Each pid touches only its own state, so domains
    share nothing while recording, and the counters are preallocated int
    arrays.

    Time comes from the workload's own clock ({!set_clock}): the monotonic
    nanosecond clock on domains, [Runtime.Ctx.now] (virtual cycles, no
    simulated access, zero virtual cost) on the simulator — so a traced
    simulation replays the untraced one exactly.

    The full span tree of every 1024th root span of a pid is also written
    to a per-pid {!Telemetry.Trace}. *)

(* Span kinds.  Roots (the operations the workload issues) come first. *)
let k_op = 0
let k_kv_get = 1
let k_kv_put = 2
let k_kv_delete = 3
let k_schedule = 4
let k_leave = 5
let k_enter = 6
let k_protect = 7
let k_unprotect = 8
let k_retire = 9
let k_emergency = 10
let k_pool_allocate = 11
let k_pool_release = 12
let k_alloc_allocate = 13
let k_alloc_deallocate = 14

let names =
  [|
    "op";
    "kv.get";
    "kv.put";
    "kv.delete";
    "schedule";
    "reclaimer.leave_qstate";
    "reclaimer.enter_qstate";
    "reclaimer.protect";
    "reclaimer.unprotect";
    "reclaimer.retire";
    "reclaimer.emergency_reclaim";
    "pool.allocate";
    "pool.release";
    "alloc.allocate";
    "alloc.deallocate";
  |]

let nkinds = Array.length names

(* Counters bumped by {!Timed.Rm} at the typed Record Manager surface. *)
let c_cas = 0
let c_cas_ok = 1
let c_acquire = 2
let c_acquire_fail = 3
let ncounters = 4
let max_depth = 64
let sample_every = 1024

type pid = {
  stack_kind : int array;
  stack_start : int array;
  stack_child : int array;  (** time covered by closed children, per level *)
  stack_kids : int array;  (** children closed so far, per level *)
  mutable depth : int;
  count : int array;  (** per kind: spans closed *)
  self : int array;  (** per kind: summed self time *)
  incl : int array;  (** per kind: summed inclusive time *)
  kids : int array;  (** per kind: direct children of those spans *)
  hist : Telemetry.Histogram.t array;
      (** per kind: inclusive times, for the kinds {!distributed} names *)
  counters : int array;
  mutable opens : int;
  mutable closes : int;
  mutable unwound : int;  (** spans closed by an exception passing through *)
  mutable neg_self : int;  (** spans whose self time came out negative *)
  mutable roots : int;
  mutable sampled : bool;
  mutable limbo_peak : int;
  trace : Telemetry.Trace.t;
}

let clock : (Runtime.Ctx.t -> int) ref = ref Runtime.Ctx.now
let pids : pid array ref = ref [||]

(* Sampled at the close of every traced root span: an uninstrumented
   gauge, so sampling costs no simulated time. *)
let limbo_gauge : (unit -> int) ref = ref (fun () -> 0)

let set_clock f = clock := f

(* The kinds whose distribution a metric reads; the others keep totals
   only, which keeps the per-span cost of tracing down. *)
let distributed kind =
  kind = k_retire || kind = k_kv_get || kind = k_kv_put || kind = k_kv_delete

let fresh_pid ~cycles_per_us =
  {
    stack_kind = Array.make max_depth 0;
    stack_start = Array.make max_depth 0;
    stack_child = Array.make max_depth 0;
    stack_kids = Array.make max_depth 0;
    depth = 0;
    count = Array.make nkinds 0;
    self = Array.make nkinds 0;
    incl = Array.make nkinds 0;
    kids = Array.make nkinds 0;
    hist = Array.init nkinds (fun _ -> Telemetry.Histogram.create ~sub_bits:7 ());
    counters = Array.make ncounters 0;
    opens = 0;
    closes = 0;
    unwound = 0;
    neg_self = 0;
    roots = 0;
    sampled = false;
    limbo_peak = 0;
    trace = Telemetry.Trace.create ~max_events:20_000 ~cycles_per_us ();
  }

(** Stop recording (spans opened afterwards are not counted) and hand
    back the finished per-pid state. *)
let stop () =
  let ps = !pids in
  pids := [||];
  ps

let enter ctx kind =
  let ps = !pids in
  let pid = ctx.Runtime.Ctx.pid in
  if pid < Array.length ps then begin
    let p = ps.(pid) in
    let d = p.depth in
    if d = 0 then begin
      p.sampled <- p.roots land (sample_every - 1) = 0;
      p.roots <- p.roots + 1
    end
    else p.stack_kids.(d - 1) <- p.stack_kids.(d - 1) + 1;
    p.stack_kind.(d) <- kind;
    p.stack_start.(d) <- !clock ctx;
    p.stack_child.(d) <- 0;
    p.stack_kids.(d) <- 0;
    p.depth <- d + 1;
    p.opens <- p.opens + 1
  end

let leave ctx =
  let ps = !pids in
  let pid = ctx.Runtime.Ctx.pid in
  if pid < Array.length ps then begin
    let p = ps.(pid) in
    let now = !clock ctx in
    let d = p.depth - 1 in
    let kind = p.stack_kind.(d) in
    let start = p.stack_start.(d) in
    let dur = now - start in
    let self = dur - p.stack_child.(d) in
    if self < 0 then p.neg_self <- p.neg_self + 1;
    p.depth <- d;
    p.closes <- p.closes + 1;
    p.count.(kind) <- p.count.(kind) + 1;
    p.self.(kind) <- p.self.(kind) + self;
    p.incl.(kind) <- p.incl.(kind) + dur;
    p.kids.(kind) <- p.kids.(kind) + p.stack_kids.(d);
    if distributed kind then Telemetry.Histogram.record p.hist.(kind) dur;
    if d > 0 then p.stack_child.(d - 1) <- p.stack_child.(d - 1) + dur;
    if p.sampled then begin
      Telemetry.Trace.complete p.trace ~pid ~name:names.(kind) ~cat:"span"
        ~start ~finish:now;
      if d = 0 then begin
        p.sampled <- false;
        let l = !limbo_gauge () in
        if l > p.limbo_peak then p.limbo_peak <- l
      end
    end
  end

(** Close the innermost span on the way out of an exception (a
    neutralization, a use-after-free trap, a full arena), so the span
    stack unwinds in step with the OCaml one; re-raises [e]. *)
let unwind ctx e =
  let ps = !pids in
  let pid = ctx.Runtime.Ctx.pid in
  if pid < Array.length ps then ps.(pid).unwound <- ps.(pid).unwound + 1;
  leave ctx;
  raise e

(* Exception-safe brackets.  The measured function is passed unapplied so
   no closure is allocated per call. *)

let span2 kind f a ctx =
  enter ctx kind;
  match f a ctx with
  | v ->
      leave ctx;
      v
  | exception e -> unwind ctx e

let span3 kind f a ctx b =
  enter ctx kind;
  match f a ctx b with
  | v ->
      leave ctx;
      v
  | exception e -> unwind ctx e

let bump ctx counter =
  let ps = !pids in
  let pid = ctx.Runtime.Ctx.pid in
  if pid < Array.length ps then begin
    let c = ps.(pid).counters in
    c.(counter) <- c.(counter) + 1
  end

(** What recording itself costs in the workload's clock: the self time an
    empty span reports, and the time one empty child adds to its parent's
    self time.  Both are 0 under the simulator, whose clock does not see
    host work. *)
type probe = { per_span : float; per_child : float }

let probe = ref { per_span = 0.; per_child = 0. }

let calibrate () =
  let ctx = Runtime.Ctx.make ~pid:0 ~nprocs:1 ~seed:0 in
  let n = 1000 in
  let batch () =
    let p = fresh_pid ~cycles_per_us:1. in
    p.roots <- 1 (* not a sampled root: no trace events *);
    pids := [| p |];
    enter ctx k_op;
    for _ = 1 to n do
      enter ctx k_leave;
      leave ctx
    done;
    leave ctx;
    (float_of_int p.self.(k_leave) /. float_of_int n, float_of_int p.self.(k_op) /. float_of_int n)
  in
  let samples = List.init 7 (fun _ -> batch ()) in
  pids := [||];
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  probe :=
    { per_span = median (List.map fst samples); per_child = median (List.map snd samples) }

(** Start a traced run over [n] pids: measure the probe cost under the
    current clock, then fresh, zeroed state for every pid.  Call after
    set-up (prefill), so only the measured run is recorded. *)
let reset ~n ~cycles_per_us =
  calibrate ();
  pids := Array.init n (fun _ -> fresh_pid ~cycles_per_us)

(** Totals over every pid, taken after the run. *)
type summary = {
  s_count : int array;
  s_self : int array;
  s_incl : int array;
  s_kids : int array;
  s_probe : probe;
  s_hist : Telemetry.Histogram.t array;
  s_counters : int array;
  s_opens : int;
  s_closes : int;
  s_unwound : int;
  s_open_at_end : int;  (** spans still on a stack: must be 0 *)
  s_neg_self : int;
  s_roots : int;
  s_limbo_peak : int;
}

let is_root kind = kind <= k_schedule

let summary ps =
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 ps in
  let per_kind f = Array.init nkinds (fun k -> sum (fun p -> (f p).(k))) in
  let hist =
    Array.init nkinds (fun k ->
        let h = Telemetry.Histogram.create ~sub_bits:7 () in
        Array.iter (fun p -> Telemetry.Histogram.merge_into p.hist.(k) ~into:h) ps;
        h)
  in
  {
    s_count = per_kind (fun p -> p.count);
    s_self = per_kind (fun p -> p.self);
    s_incl = per_kind (fun p -> p.incl);
    s_kids = per_kind (fun p -> p.kids);
    s_probe = !probe;
    s_hist = hist;
    s_counters = Array.init ncounters (fun c -> sum (fun p -> p.counters.(c)));
    s_opens = sum (fun p -> p.opens);
    s_closes = sum (fun p -> p.closes);
    s_unwound = sum (fun p -> p.unwound);
    s_open_at_end = sum (fun p -> p.depth);
    s_neg_self = sum (fun p -> p.neg_self);
    s_roots = sum (fun p -> p.roots);
    s_limbo_peak = Array.fold_left (fun acc p -> max acc p.limbo_peak) 0 ps;
  }

(** Root-span time (what the workload measured per operation) and the sum
    of every span's self time: equal when the stacks nested properly. *)
let root_time s =
  let t = ref 0 in
  Array.iteri (fun k v -> if is_root k then t := !t + v) s.s_incl;
  !t

let self_time s = Array.fold_left ( + ) 0 s.s_self

(** A kind's self time less what its own probes and its children's
    probes cost: the layer's time as it would be untraced. *)
let net_self s kind =
  max 0.
    (float_of_int s.s_self.(kind)
    -. (float_of_int s.s_count.(kind) *. s.s_probe.per_span)
    -. (float_of_int s.s_kids.(kind) *. s.s_probe.per_child))

(** Every pid's sampled span trees as one Chrome trace document. *)
let trace_json ps =
  let events =
    Array.to_list ps
    |> List.concat_map (fun p ->
           match
             Telemetry.Json.member "traceEvents"
               (Telemetry.Trace.to_json p.trace)
           with
           | Some (Telemetry.Json.List evs) -> evs
           | _ -> [])
  in
  Telemetry.Json.Obj
    [
      ("traceEvents", Telemetry.Json.List events);
      ("displayTimeUnit", Telemetry.Json.String "ns");
    ]
