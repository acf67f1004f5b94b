(** Telemetry subsystem tests: histogram quantiles against an exact
    sorted-sample reference, probe fan-out and removal, JSON codec round-trips,
    Chrome-trace well-formedness on a real traced trial, telemetry under
    the sanitizer, and the E-stall limbo-bound regression. *)

let seeded n = Random.State.make [| 0x7e1e; n |]

(* ------------------------------------------------------------------ *)
(* Histogram: quantiles vs exact reference                             *)

let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  let rank = if rank < 1 then 1 else rank in
  sorted.(rank - 1)

let check_quantiles ~name ~sub_bits values =
  let h = Telemetry.Histogram.create ~sub_bits () in
  Array.iter (Telemetry.Histogram.record h) values;
  let sorted = Array.copy values in
  Array.sort compare sorted;
  Alcotest.(check int) (name ^ ": count") (Array.length values)
    (Telemetry.Histogram.count h);
  List.iter
    (fun q ->
      let e = exact_quantile sorted q in
      let v = Telemetry.Histogram.quantile h q in
      (* The histogram returns the midpoint of the bucket holding the
         exact quantile, so the error is at most one bucket width:
         relative 2^-sub_bits, absolute 1 for the tiny exact buckets. *)
      let tol =
        max 1 (int_of_float (float_of_int e /. float_of_int (1 lsl sub_bits)))
      in
      if abs (v - e) > tol then
        Alcotest.failf "%s: q=%.3f histogram %d vs exact %d (tol %d)" name q
          v e tol)
    [ 0.5; 0.9; 0.99; 0.999; 1.0 ]

let test_histogram_quantiles () =
  let rng = seeded 1 in
  (* Uniform small values: exact buckets. *)
  check_quantiles ~name:"uniform small" ~sub_bits:5
    (Array.init 10_000 (fun _ -> Random.State.int rng 30));
  (* Uniform large. *)
  check_quantiles ~name:"uniform large" ~sub_bits:5
    (Array.init 10_000 (fun _ -> Random.State.int rng 5_000_000));
  (* Long-tailed: exponential-ish via multiplication. *)
  check_quantiles ~name:"long tail" ~sub_bits:5
    (Array.init 10_000 (fun _ ->
         int_of_float (exp (Random.State.float rng 14.0))));
  (* Coarser buckets, looser tolerance. *)
  check_quantiles ~name:"sub_bits=2" ~sub_bits:2
    (Array.init 2_000 (fun _ -> Random.State.int rng 100_000));
  (* Finer buckets. *)
  check_quantiles ~name:"sub_bits=8" ~sub_bits:8
    (Array.init 2_000 (fun _ -> Random.State.int rng 100_000))

let test_histogram_stats () =
  let h = Telemetry.Histogram.create () in
  Alcotest.(check int) "empty quantile" 0 (Telemetry.Histogram.quantile h 0.5);
  Alcotest.(check int) "empty min" 0 (Telemetry.Histogram.min_value h);
  List.iter (Telemetry.Histogram.record h) [ 5; 10; 15 ];
  Alcotest.(check int) "min" 5 (Telemetry.Histogram.min_value h);
  Alcotest.(check int) "max" 15 (Telemetry.Histogram.max_value h);
  Alcotest.(check int) "count" 3 (Telemetry.Histogram.count h);
  Alcotest.(check (float 0.01)) "mean" 10.0 (Telemetry.Histogram.mean h);
  let h2 = Telemetry.Histogram.create () in
  Telemetry.Histogram.record h2 1_000_000;
  Telemetry.Histogram.merge_into h2 ~into:h;
  Alcotest.(check int) "merged count" 4 (Telemetry.Histogram.count h);
  let m = Telemetry.Histogram.max_value h in
  Alcotest.(check bool) "merged max" true (m >= 1_000_000 * 31 / 32)

(* Per-process buffers merged after a run read exactly like one buffer fed
   every sample: the merge adds bucket counts, and min, max and the
   (integer-valued) total are exact. *)
let test_merge_locals () =
  let rng = seeded 7 and nprocs = 4 in
  let recorder () = Telemetry.Recorder.create ~cycles_per_ns:1.0 ~nprocs () in
  let merged = recorder () and single = recorder () in
  let locals = Telemetry.Recorder.locals merged in
  let one = (Telemetry.Recorder.locals single).(0) in
  for i = 0 to 4_999 do
    let kind = if i mod 3 = 0 then "search" else "insert" in
    let finish = int_of_float (exp (Random.State.float rng 12.0)) in
    Telemetry.Recorder.local_op locals.(i mod nprocs) ~kind ~start:0 ~finish;
    Telemetry.Recorder.local_op one ~kind ~start:0 ~finish
  done;
  Telemetry.Recorder.merge_locals merged locals;
  Telemetry.Recorder.merge_locals single [| one |];
  let stats r =
    List.map
      (fun (kind, pcts) ->
        let h = Option.get (Telemetry.Recorder.histogram r kind) in
        let open Telemetry.Histogram in
        (kind, [ count h; min_value h; max_value h; int_of_float (mean h) ], pcts))
      (Telemetry.Recorder.latency_percentiles r)
  in
  Alcotest.(check (list (triple string (list int) (list (pair (float 0.) int)))))
    "count, min, max, mean and percentiles" (stats single)
    (stats merged);
  Alcotest.(check (float 0.)) "exact mean"
    (Telemetry.Histogram.mean
       (Option.get (Telemetry.Recorder.histogram single "insert")))
    (Telemetry.Histogram.mean
       (Option.get (Telemetry.Recorder.histogram merged "insert")))

(* ------------------------------------------------------------------ *)
(* Probe: fan-out, subscription order, out-of-order removal, scope      *)

let test_probe_fanout () =
  let ctx = Runtime.Group.ctx (Runtime.Group.create ~seed:1 1) 0 in
  let heap = Memory.Heap.create () and other = Memory.Heap.create () in
  let log = ref [] in
  let hook name =
    Runtime.Ctx.add_hook ctx (fun _ ~line:_ _ -> log := name :: !log)
  in
  let events name =
    let s =
      Runtime.Ctx.subscriber ~scope:(Memory.Heap.scope heap)
        ~event:(fun _ _ -> log := name :: !log) ()
    in
    Runtime.Ctx.subscribe ctx s;
    fun () -> Runtime.Ctx.unsubscribe ctx s
  in
  (* One access, one event on [heap], one on [other] (never delivered). *)
  let step what expected =
    log := [];
    Runtime.Ctx.work ctx 1;
    Memory.Heap.emit heap ctx Memory.Smr_event.Enter_q;
    Memory.Heap.emit other ctx Memory.Smr_event.Leave_q;
    Alcotest.(check (list string)) what expected (List.rev !log)
  in
  step "no subscribers" [];
  let a1 = hook "a1" in
  let e1 = events "e1" in
  let a2 = hook "a2" in
  let e2 = events "e2" in
  (* Each channel runs in subscription order. *)
  step "fan-out" [ "a1"; "a2"; "e1"; "e2" ];
  (* Removal in install order: the survivors keep firing. *)
  List.iteri
    (fun i (remove, expect) ->
      remove ();
      step (Printf.sprintf "removal %d" i) expect)
    (List.combine [ a1; e1; a2; e2 ]
       [ [ "a2"; "e1"; "e2" ]; [ "a2"; "e2" ]; [ "e2" ]; [] ]);
  Alcotest.(check bool) "fast path restored" false (Runtime.Ctx.observed ctx)

(* ------------------------------------------------------------------ *)
(* JSON codec round-trip                                               *)

let test_json_roundtrip () =
  let open Telemetry.Json in
  let doc =
    Obj
      [
        ("s", String "he\"llo\n\tworld\\");
        ("i", Int (-42));
        ("f", Float 3.25);
        ("b", Bool true);
        ("n", Null);
        ("l", List [ Int 1; Int 2; Obj [ ("x", Int 3) ] ]);
        ("empty_l", List []);
        ("empty_o", Obj []);
      ]
  in
  let parsed = of_string (to_string doc) in
  Alcotest.(check bool) "round-trip" true (parsed = doc);
  Alcotest.(check bool) "member" true (member "i" parsed = Some (Int (-42)));
  (match of_string "  [1, 2.5, \"x\", null, true] " with
  | List [ Int 1; Float 2.5; String "x"; Null; Bool true ] -> ()
  | _ -> Alcotest.fail "whitespace/mixed list parse");
  List.iter
    (fun bad ->
      match of_string bad with
      | exception Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed %S" bad)
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Traced trial: Chrome trace parses back and is well-formed           *)

(* A 200,000-record arena whatever the key range. *)
let small_cfg ?telemetry ?stall ?(duration = 300_000) ?(n = 4)
    ?(range = 2_000) () =
  {
    Workload.Trial.default with
    duration;
    n;
    range;
    seed = 11;
    headroom = 200_000 - range;
    telemetry;
    stall;
  }

let test_trace_well_formed () =
  let trace = Telemetry.Trace.create ~cycles_per_us:3000.0 () in
  let rec_ =
    Telemetry.Recorder.create ~sample_every:30_000 ~trace ~cycles_per_ns:3.0
      ~nprocs:4 ()
  in
  let r = Workload.Schemes.runner ~ds:"bst" "debra+" in
  let o = r.Workload.Schemes.run (small_cfg ~telemetry:rec_ ()) in
  Alcotest.(check bool) "trial ran" true (o.Workload.Trial.ops > 0);
  Alcotest.(check bool) "latency collected" true
    (o.Workload.Trial.latency <> []);
  let open Telemetry.Json in
  let doc = of_string (to_string (Telemetry.Trace.to_json trace)) in
  let events =
    match member "traceEvents" doc with
    | Some (List evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  Alcotest.(check bool) "trace non-empty" true (List.length events > 0);
  let phases = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let str k =
        match member k ev with
        | Some (String s) -> s
        | _ -> Alcotest.failf "event missing string %S" k
      in
      let num k =
        match member k ev with
        | Some (Int _ | Float _) -> ()
        | _ -> Alcotest.failf "event missing number %S" k
      in
      Alcotest.(check bool) "name non-empty" true (str "name" <> "");
      num "ts";
      num "pid";
      num "tid";
      let ph = str "ph" in
      if ph = "X" then num "dur";
      Hashtbl.replace phases ph ())
    events;
  (* The run must have produced op spans and track metadata at least. *)
  Alcotest.(check bool) "has op spans" true (Hashtbl.mem phases "X");
  Alcotest.(check bool) "has metadata" true (Hashtbl.mem phases "M");
  (* Sampled series have the tick cadence. *)
  let series = Telemetry.Recorder.series rec_ in
  let limbo = List.assoc "limbo" series in
  Alcotest.(check bool) "series sampled" true (List.length limbo > 2);
  ignore
    (List.fold_left
       (fun prev (t, vs) ->
         Alcotest.(check int) "per-proc width" 4 (Array.length vs);
         Alcotest.(check bool) "ticks increase" true (t > prev);
         t)
       (-1) limbo)

(* The checked-in bench baselines and pinned campaign reports are
   self-describing (bench/row.ml): every
   row carries the declared key fields, every other scalar in a row is a
   declared metric, and every metric has a unit and an [exact] flag (so
   tools/bench_gate.py can gate it without knowing its name). *)
let test_bench_baselines () =
  let open Telemetry.Json in
  List.iter
    (fun file ->
      (* dune runtest runs in _build/default/test, below the copied deps;
         dune exec from the repo root sees the source tree *)
      let path = if Sys.file_exists file then file else "../" ^ file in
      let doc = of_string In_channel.(with_open_bin path input_all) in
      let field name j = Option.value ~default:Null (member name j) in
      let key, metrics, rows =
        match (field "key" doc, field "metrics" doc, field "results" doc) with
        | List key, Obj metrics, List rows ->
            (List.map (function String k -> k | _ -> "") key, metrics, rows)
        | _ -> Alcotest.failf "%s: not a key/metrics/results document" file
      in
      List.iter
        (fun (name, decl) ->
          match (field "unit" decl, field "better" decl, field "exact" decl) with
          | String u, (Null | String ("higher" | "lower")), Bool _ when u <> ""
            ->
              ()
          | _ -> Alcotest.failf "%s: metric %s is not fully declared" file name)
        metrics;
      Alcotest.(check bool) (file ^ ": has rows") true (rows <> []);
      List.iter
        (function
          | Obj fields ->
              List.iter
                (fun k ->
                  if not (List.mem_assoc k fields) then
                    Alcotest.failf "%s: a row lacks key field %s" file k)
                key;
              List.iter
                (function
                  | _, (Obj _ | List _) -> ()
                  | k, _ ->
                      if not (List.mem k key || List.mem_assoc k metrics) then
                        Alcotest.failf "%s: undeclared field %s" file k)
                fields
          | _ -> Alcotest.failf "%s: a row is not an object" file)
        rows)
    [
      "BENCH_KV.json";
      "BENCH_SIM.json";
      "BENCH_SWEEP.json";
      "test/CHAOS_REPORT.json";
      "test/DEGRADATION_REPORT.json";
    ]

let test_metrics_json () =
  let rec_ =
    Telemetry.Recorder.create ~sample_every:30_000 ~cycles_per_ns:3.0
      ~nprocs:4 ()
  in
  let r = Workload.Schemes.runner ~ds:"bst" "debra" in
  let _o = r.Workload.Schemes.run (small_cfg ~telemetry:rec_ ()) in
  let open Telemetry.Json in
  let doc = of_string (to_string (Telemetry.Recorder.metrics_json rec_)) in
  (match member "counters" doc with
  | Some (Obj kvs) ->
      Alcotest.(check bool) "counts retires" true
        (match List.assoc_opt "retires" kvs with
        | Some (Int n) -> n > 0
        | _ -> false)
  | _ -> Alcotest.fail "counters missing");
  match member "latency_ns" doc with
  | Some (Obj kvs) ->
      Alcotest.(check bool) "has insert histogram" true
        (List.mem_assoc "insert" kvs)
  | _ -> Alcotest.fail "latency_ns missing"

(* ------------------------------------------------------------------ *)
(* Decimating bounded gauge sampler                                    *)

let test_gauge_decimation () =
  let max_samples = 16 in
  let reads = ref 0 in
  let rec_ =
    Telemetry.Recorder.create ~sample_every:1 ~max_samples ~cycles_per_ns:1.0
      ~nprocs:1 ()
  in
  Telemetry.Recorder.add_gauge rec_ ~name:"g" (fun () ->
      incr reads;
      [| !reads |]);
  let nticks = 10_000 in
  for i = 0 to nticks - 1 do
    Telemetry.Recorder.tick rec_ i
  done;
  let samples = List.assoc "g" (Telemetry.Recorder.series rec_) in
  (* Bounded: never more than max_samples rows retained. *)
  Alcotest.(check bool) "series bounded"
    true
    (List.length samples <= max_samples);
  Alcotest.(check bool) "series non-trivial" true (List.length samples >= 8);
  (* Scale-safe: skipped ticks never call the gauge read function — total
     reads are O(max_samples * log nticks), far below one per tick. *)
  Alcotest.(check bool) "reads bounded" true (!reads <= 8 * max_samples);
  (* Uniform coverage: retained ticks sit on one stride, starting at 0. *)
  (match samples with
  | (t0, _) :: (t1, _) :: _ ->
      let stride = t1 - t0 in
      Alcotest.(check int) "first tick kept" 0 t0;
      Alcotest.(check bool) "stride is a power of two" true
        (stride land (stride - 1) = 0);
      ignore
        (List.fold_left
           (fun prev (t, _) ->
             Alcotest.(check int) "evenly spaced" stride (t - prev);
             t)
           (t0 - stride) samples);
      Alcotest.(check bool) "covers the whole run" true
        (fst (List.nth samples (List.length samples - 1))
        >= nticks - (2 * stride))
  | _ -> Alcotest.fail "expected at least two samples");
  (* A recorder that never overflows keeps every tick (legacy behavior). *)
  let rec2 =
    Telemetry.Recorder.create ~sample_every:1 ~cycles_per_ns:1.0 ~nprocs:1 ()
  in
  Telemetry.Recorder.add_gauge rec2 ~name:"g" (fun () -> [| 0 |]);
  for i = 0 to 99 do
    Telemetry.Recorder.tick rec2 i
  done;
  Alcotest.(check int) "under the bound every tick is kept" 100
    (List.length (List.assoc "g" (Telemetry.Recorder.series rec2)))

(* ------------------------------------------------------------------ *)
(* Telemetry and sanitizer share the event stream                      *)

let test_telemetry_with_sanitizer () =
  let trace = Telemetry.Trace.create ~cycles_per_us:3000.0 () in
  let rec_ =
    Telemetry.Recorder.create ~sample_every:30_000 ~trace ~cycles_per_ns:3.0
      ~nprocs:4 ()
  in
  let r = Workload.Schemes.runner ~ds:"bst" "debra+" in
  let cfg = small_cfg ~telemetry:rec_ () in
  let o = r.Workload.Schemes.run { cfg with Workload.Trial.sanitize = true } in
  Alcotest.(check (option int)) "no violations" (Some 0)
    o.Workload.Trial.violations;
  Alcotest.(check bool) "trace collected alongside sanitizer" true
    (Telemetry.Trace.events trace > 0);
  Alcotest.(check bool) "percentiles collected alongside sanitizer" true
    (o.Workload.Trial.latency <> [])

(* ------------------------------------------------------------------ *)
(* E-stall regression: DEBRA+ bounded, DEBRA unbounded                 *)

let test_estall_bound () =
  (* Mirrors bench/stall.ml at reduced duration: one process parks
     non-quiescent at t=duration/5; DEBRA's epoch freezes and its limbo
     grows for the rest of the trial, DEBRA+ neutralizes the victim and
     stays under the paper's O(mn^2) bound. *)
  let n = 8 in
  let duration = 2_400_000 in
  let stall_at = duration / 5 in
  let block_capacity = 64 in
  let params =
    {
      Reclaim.Intf.Params.default with
      Reclaim.Intf.Params.block_capacity;
      incr_thresh = n;
    }
  in
  let bound = Reclaim.Registry.paper_bound ~n params in
  let run (r : Workload.Schemes.runner) =
    let rec_ =
      Telemetry.Recorder.create ~sample_every:(duration / 100)
        ~cycles_per_ns:3.0 ~nprocs:n ()
    in
    let cfg =
      {
        (small_cfg ~telemetry:rec_ ~stall:(stall_at, duration - stall_at)
           ~duration ~n ~range:10_000 ())
        with
        Workload.Trial.params;
      }
    in
    let o = r.Workload.Schemes.run cfg in
    Alcotest.(check bool) (r.Workload.Schemes.rname ^ " ran") true
      (o.Workload.Trial.ops > 0);
    Telemetry.Recorder.series_total rec_ "limbo"
  in
  let peak s = List.fold_left (fun acc (_, v) -> max acc v) 0 s in
  let final s = match List.rev s with (_, v) :: _ -> v | [] -> 0 in
  let at_stall s =
    List.fold_left (fun acc (t, v) -> if t <= stall_at then v else acc) 0 s
  in
  let dplus = run (Workload.Schemes.runner ~ds:"bst" "debra+") in
  let debra = run (Workload.Schemes.runner ~ds:"bst" "debra") in
  let ebr = run (Workload.Schemes.runner ~ds:"bst" "ebr") in
  (* DEBRA+ neutralizes the stalled process: bounded plateau. *)
  Alcotest.(check bool)
    (Printf.sprintf "debra+ peak %d under bound %d" (peak dplus) bound)
    true
    (peak dplus <= bound);
  (* DEBRA's frozen epoch: limbo grows past the bound by trial end. *)
  Alcotest.(check bool)
    (Printf.sprintf "stalled debra final %d exceeds bound %d" (final debra)
       bound)
    true
    (final debra > bound);
  (* EBR also freezes: monotone growth after the stall. *)
  Alcotest.(check bool)
    (Printf.sprintf "stalled ebr grows (%d -> %d)" (at_stall ebr) (final ebr))
    true
    (final ebr > 2 * max 1 (at_stall ebr) && final ebr > peak dplus)

let () =
  Alcotest.run "telemetry"
    [
      ( "histogram",
        [
          Alcotest.test_case "quantiles vs exact reference" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "stats and merge" `Quick test_histogram_stats;
          Alcotest.test_case "merged buffers equal one buffer" `Quick
            test_merge_locals;
        ] );
      ( "probe",
        [
          Alcotest.test_case "fan-out, out-of-order removal" `Quick
            test_probe_fanout;
        ] );
      ( "json",
        [
          Alcotest.test_case "codec round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "bench baselines are self-describing" `Quick
            test_bench_baselines;
        ] );
      ( "trace",
        [
          Alcotest.test_case "traced trial is well-formed catapult JSON"
            `Quick test_trace_well_formed;
          Alcotest.test_case "metrics document shape" `Quick test_metrics_json;
          Alcotest.test_case "gauge sampler decimates, stays bounded" `Quick
            test_gauge_decimation;
        ] );
      ( "integration",
        [
          Alcotest.test_case "telemetry under the sanitizer" `Quick
            test_telemetry_with_sanitizer;
          Alcotest.test_case "E-stall limbo bound" `Slow test_estall_bound;
        ] );
    ]
