(** The paper's experiments (§7), one function per table/figure.  See
    DESIGN.md's per-experiment index and EXPERIMENTS.md for paper-vs-measured
    results. *)

open Workload.Schemes

type scale = {
  threads : int list;
  duration : int;
  big_range : int;  (* paper: 10^6 *)
  small_range : int;  (* paper: 10^4 *)
  sl_range : int;  (* paper: 2*10^5 *)
}

let quick_scale =
  {
    threads = [ 1; 2; 4; 8; 16 ];
    duration = 1_200_000;
    big_range = 100_000;
    small_range = 10_000;
    sl_range = 50_000;
  }

let full_scale =
  {
    threads = [ 1; 2; 3; 4; 6; 8; 10; 12; 14; 16 ];
    duration = 6_000_000;
    big_range = 1_000_000;
    small_range = 10_000;
    sl_range = 200_000;
  }

(* Set by bench/main.ml's --sanitize flag.  Default off: all numbers in
   EXPERIMENTS.md are measured without the sanitizer attached. *)
let sanitize = ref false

(* Set by bench/main.ml's --check-linearizability / --history-out flags:
   every trial records its operation history; checked histories feed
   [lin_failures], and --history-out keeps the last trial's history. *)
let check_lin = ref false
let history_out : string option ref = ref None
let lin_failures = ref 0

(* Set by bench/main.ml's --backend flag. *)
let backend : Exec.Backend.t ref = ref `Sim

(* Per-op cost in cycles: the busy cycles of all processes over the ops
   they completed. *)
let cycles_per_op (o : Workload.Trial.outcome) =
  if o.Workload.Trial.ops = 0 then infinity
  else
    float_of_int o.Workload.Trial.nprocs
    *. float_of_int o.Workload.Trial.virtual_time
    /. float_of_int o.Workload.Trial.ops

(* The measurements of one trial, declared once for every table that
   embeds a trial row (the figure panels, e-chaos, e-stall); each table
   names the trial's scheme, backend and process count itself. *)
let trial_metrics () =
  let m ?better unit = Row.metric ?better ~exact:(!backend = `Sim) unit in
  [
    ("ops", m "ops");
    ("mops", m ~better:`Higher "Mops/s");
    ("bytes_peak", m "bytes");
    ("bytes_claimed", m "bytes");
    ("bytes_claimed_trial", m "bytes");
    ("limbo", m "records");
    ("neutralized", m "processes");
    ("oom", m "bool");
  ]

let trial_fields (o : Workload.Trial.outcome) =
  let open Telemetry.Json in
  [
    ("ops", Int o.Workload.Trial.ops);
    ("mops", Float o.Workload.Trial.mops);
    ("bytes_peak", Int o.Workload.Trial.bytes_peak);
    ("bytes_claimed", Int o.Workload.Trial.bytes_claimed);
    ("bytes_claimed_trial", Int o.Workload.Trial.bytes_claimed_trial);
    ("limbo", Int o.Workload.Trial.limbo);
    ("neutralized", Int o.Workload.Trial.neutralized);
    ("oom", Bool o.Workload.Trial.oom);
    ( "latency_ns",
      Obj
        (List.map
           (fun (kind, ps) ->
             let pct (p, v) = (Telemetry.Histogram.percentile_key p, Int v) in
             (kind, Obj (List.map pct ps)))
           o.Workload.Trial.latency) );
  ]

(* With --json, one row per trial, keyed by its panel (every trial's
   telemetry recorder adds per-kind latency percentiles). *)
let trial_table () =
  {
    Row.key = [ "panel"; "scheme"; "backend"; "nprocs" ];
    metrics = ("wall_seconds", Row.metric ~exact:false "s") :: trial_metrics ();
  }

(* Post-trial history handling: dump and/or WGL-check the recorded
   history.  The check is exponential in overlap; bench-scale histories
   usually exceed the node budget, in which case it says so rather than
   pretend a verdict (use small scales, or the exploration matrix, for
   real checking). *)
let check_history o =
  if
    not
      (Workload.Trial.save_and_check_history ~out:!history_out
         ~check:!check_lin o)
  then incr lin_failures

(* What a figure trial measured, beyond its scheme and process count: the
   key by which summary reads the outcomes exp1, exp2 and memfig recorded
   in this process. *)
type cell = { experiment : string; ds : string; range : int; ins : int; del : int }

let recorded = ref []

(* Summary reads no history: dropping it keeps every figure trial's
   recorded history from staying live for the whole run. *)
let remember cell (o : Workload.Trial.outcome) =
  recorded :=
    ( (cell, o.Workload.Trial.scheme, o.Workload.Trial.nprocs),
      { o with history = None } )
    :: !recorded

let find_outcome cell ~scheme ~nprocs = List.assoc (cell, scheme, nprocs) !recorded

let record_outcome ~panel (o : Workload.Trial.outcome) =
  check_history o;
  Row.add (trial_table ())
    (Telemetry.Json.
       [
         ("panel", String panel);
         ("scheme", String o.Workload.Trial.scheme);
         ("backend", String o.Workload.Trial.backend);
         ("nprocs", Int o.Workload.Trial.nprocs);
         ("wall_seconds", Float o.Workload.Trial.wall_seconds);
       ]
    @ trial_fields o)

(* Panel driver: one table per (structure, range, mix); schemes as
   columns, process counts as rows; cells in Mops/s with % overhead vs the
   first (baseline) column.  Every trial feeds the JSON rows, and a figure
   panel's trials are remembered under [cell]. *)
let run_panel ?cell ~title ~runners ~threads ~cfg_of () =
  let header =
    "procs"
    :: List.concat_map
         (fun r ->
           if r.rname = "none" then [ r.rname ] else [ r.rname; "vs none" ])
         runners
  in
  let series = List.map (fun r -> (r.rname, ref [])) runners in
  let backend = ref "sim" in
  let wall = ref 0. in
  let rows =
    List.map
      (fun n ->
        let outcomes =
          List.map
            (fun r ->
              let o = r.run (cfg_of n) in
              backend := o.Workload.Trial.backend;
              wall := !wall +. o.Workload.Trial.wall_seconds;
              Option.iter (fun c -> remember c o) cell;
              record_outcome ~panel:title o;
              (r, o))
            runners
        in
        let base =
          match outcomes with (_, o) :: _ -> o.Workload.Trial.mops | [] -> 0.
        in
        string_of_int n
        :: List.concat_map
             (fun (r, (o : Workload.Trial.outcome)) ->
               let pts = List.assoc r.rname series in
               pts := (n, o.mops) :: !pts;
               let shown =
                 if o.oom then "OOM" else Workload.Report.fmt_mops o.mops
               in
               let shown =
                 match o.violations with
                 | Some v when v > 0 -> shown ^ "!SAN"
                 | _ -> shown
               in
               if r.rname = "none" then [ shown ]
               else [ shown; Workload.Report.(fmt_pct (rel ~base o.mops)) ])
             outcomes)
      threads
  in
  Workload.Report.table ~title ~header ~rows;
  Printf.printf "  backend: %s, wall-clock %.2f s\n" !backend !wall;
  Workload.Report.chart ~title:(title ^ " — figure")
    ~series:(List.map (fun (name, pts) -> (name, List.rev !pts)) series)
    ()

let base_cfg ?(machine = Machine.Config.intel_i7_4770)
    ?(params = Reclaim.Intf.Params.default) ~scale ~range ~ins ~del n =
  {
    Workload.Trial.default with
    backend = !backend;
    machine;
    params;
    duration = scale.duration;
    n;
    range;
    ins;
    del;
    sanitize = !sanitize;
    telemetry =
      (if !Row.enabled then
         Some
           (Telemetry.Recorder.create
              ~cycles_per_ns:(Exec.Clock.cycles_per_ns (Exec.Backend.clock !backend))
              ~nprocs:n ())
       else None);
    history = !check_lin || !history_out <> None;
  }

let mixes = [ (50, 50); (25, 25) ]

(* Experiments 1-3 share the same six panels (Figs. 8 and 10). *)
let throughput_experiment ~name ~note ~scale variant =
  Printf.printf "\n===== %s =====\n%s\n" name note;
  List.iter
    (fun (ins, del) ->
      List.iter
        (fun (ds, label, range) ->
          run_panel
            ~cell:{ experiment = variant; ds; range; ins; del }
            ~title:
              (Printf.sprintf "%s / %s, key range [0,%d), %s (Mops/s)" name
                 label range (mix_name ins del))
            ~runners:(panel ~ds variant) ~threads:scale.threads
            ~cfg_of:(base_cfg ~scale ~range ~ins ~del)
            ())
        [
          ("bst", "BST", scale.big_range);
          ("bst", "BST", scale.small_range);
          ("skiplist", "skip list", scale.sl_range);
        ])
    mixes

let exp1 ~scale =
  throughput_experiment ~name:"Experiment 1 (Fig. 8 left)"
    ~note:
      "Overhead of reclamation: schemes do all their work but records are \
       never reused (bump allocator, no pool)."
    ~scale "exp1"

let exp2 ~scale =
  throughput_experiment ~name:"Experiment 2 (Fig. 8 right)"
    ~note:"Records are reclaimed and reused through the DEBRA pool."
    ~scale "exp2"

let exp3 ~scale =
  throughput_experiment ~name:"Experiment 3 (Fig. 10)"
    ~note:
      "Same as Experiment 2, with a malloc-style allocator (uniform extra \
       cost per allocation) instead of the preallocating bump allocator."
    ~scale "exp3"

(* Fig. 9 (left): Experiment 2 on the 64-context NUMA machine model. *)
let exp2_t4 ~scale =
  Printf.printf "\n===== Experiment 2 on Oracle T4-1 (Fig. 9 left) =====\n";
  let threads = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let machine = Machine.Config.oracle_t4_1 in
  List.iter
    (fun (ins, del) ->
      run_panel
        ~title:
          (Printf.sprintf
             "T4-1 / BST, key range [0,%d), %s (Mops/s, 8 sockets x 8)"
             scale.big_range (mix_name ins del))
        ~runners:(panel ~ds:"bst" "exp2") ~threads
        ~cfg_of:(base_cfg ~machine ~scale ~range:scale.big_range ~ins ~del)
        ())
    mixes

(* Fig. 9 (right): memory allocated for records; BST 10^4, 50i-50d.  Past 8
   processes the i7 model is oversubscribed, which is where DEBRA's epoch
   stalls and DEBRA+'s neutralization pays off. *)
let memfig ~scale =
  Printf.printf "\n===== Memory figure (Fig. 9 right) =====\n";
  Printf.printf
    "Total memory allocated for records (bump-pointer movement), BST keys \
     [0,%d), 50i-50d.\n\
     Past 8 processes the machine is oversubscribed; the scheduling quantum \
     is raised to a realistic multi-millisecond stall so a descheduled \
     non-quiescent process blocks DEBRA's epoch for a long stretch, as on \
     the paper's Linux testbed.\n"
    scale.small_range;
  let threads = [ 1; 2; 4; 8; 12; 16 ] in
  let runners = panel ~ds:"bst" "exp2" in
  let machine =
    { Machine.Config.intel_i7_4770 with Machine.Config.quantum = 2_500_000 }
  in
  let scale = { scale with duration = max scale.duration 10_000_000 } in
  let header =
    "procs"
    :: List.concat_map
         (fun r ->
           match r.rname with
           | "none" -> [ r.rname ]
           | "debra+" -> [ r.rname; "limbo"; "neutralized" ]
           | _ -> [ r.rname; "limbo" ])
         runners
  in
  let range = scale.small_range in
  let cell = { experiment = "memfig"; ds = "bst"; range; ins = 50; del = 50 } in
  let cfg n = base_cfg ~machine ~scale ~range ~ins:50 ~del:50 n in
  let rows =
    List.map
      (fun n ->
        string_of_int n
        :: List.concat_map
             (fun r ->
               let o = r.run (cfg n) in
               remember cell o;
               record_outcome ~panel:"memfig" o;
               let mem =
                 Workload.Report.fmt_bytes o.Workload.Trial.bytes_claimed_trial
               in
               let mem = if o.Workload.Trial.oom then mem ^ " (OOM)" else mem in
               let limbo = string_of_int o.Workload.Trial.limbo in
               match r.rname with
               | "none" -> [ mem ]
               | "debra+" ->
                   [ mem; limbo; string_of_int o.Workload.Trial.neutralized ]
               | _ -> [ mem; limbo ])
             runners)
      threads
  in
  Workload.Report.table
    ~title:"Fig. 9 (right): memory allocated for records during the trial"
    ~header ~rows

(* Ablations for the design choices of §4 (not a paper figure; supports the
   paper's design discussion). *)
let ablate ~scale =
  Printf.printf "\n===== Ablations (DEBRA design choices, paper §4) =====\n";
  let p = Reclaim.Intf.Params.default in
  let cfg_with params =
    base_cfg ~params ~scale ~range:scale.small_range ~ins:50 ~del:50
  in
  let threads = [ 4; 8; 16 ] in
  (* CHECK_THRESH sweep *)
  let header = "procs" :: List.map (fun v -> Printf.sprintf "check=%d" v) [ 1; 4; 16; 64 ] in
  let rows =
    List.map
      (fun n ->
        string_of_int n
        :: List.map
             (fun check_thresh ->
               let params = { p with Reclaim.Intf.Params.check_thresh } in
               let o = (runner ~ds:"bst" "debra").run (cfg_with params n) in
               Workload.Report.fmt_mops o.Workload.Trial.mops)
             [ 1; 4; 16; 64 ])
      threads
  in
  Workload.Report.table
    ~title:"DEBRA: incremental announcement scanning (CHECK_THRESH), BST 10^4 50i-50d (Mops/s)"
    ~header ~rows;
  (* INCR_THRESH sweep *)
  let values = [ 1; 10; 100; 1000 ] in
  let header = "procs" :: List.map (fun v -> Printf.sprintf "incr=%d" v) values in
  let rows =
    List.map
      (fun n ->
        string_of_int n
        :: List.map
             (fun incr_thresh ->
               let params = { p with Reclaim.Intf.Params.incr_thresh } in
               let o = (runner ~ds:"bst" "debra").run (cfg_with params n) in
               Workload.Report.fmt_mops o.Workload.Trial.mops)
             values)
      threads
  in
  Workload.Report.table
    ~title:"DEBRA: epoch-advance throttling (INCR_THRESH), BST 10^4 50i-50d (Mops/s)"
    ~header ~rows;
  (* Block size sweep *)
  let values = [ 16; 64; 256; 1024 ] in
  let header = "procs" :: List.map (fun v -> Printf.sprintf "B=%d" v) values in
  let rows =
    List.map
      (fun n ->
        string_of_int n
        :: List.map
             (fun block_capacity ->
               let params = { p with Reclaim.Intf.Params.block_capacity } in
               let o = (runner ~ds:"bst" "debra").run (cfg_with params n) in
               Workload.Report.fmt_mops o.Workload.Trial.mops)
             values)
      threads
  in
  Workload.Report.table
    ~title:"DEBRA: limbo-bag block size B, BST 10^4 50i-50d (Mops/s)" ~header
    ~rows;
  (* Announcement padding on the NUMA machine *)
  let header = [ "procs"; "padded"; "unpadded" ] in
  let rows =
    List.map
      (fun n ->
        let run padded =
          let params = { p with Reclaim.Intf.Params.padded_announcements = padded } in
          (runner ~ds:"bst" "debra").run
            (base_cfg ~machine:Machine.Config.oracle_t4_1 ~params ~scale
               ~range:scale.small_range ~ins:25 ~del:25 n)
        in
        [
          string_of_int n;
          Workload.Report.fmt_mops (run true).Workload.Trial.mops;
          Workload.Report.fmt_mops (run false).Workload.Trial.mops;
        ])
      [ 16; 32; 64 ]
  in
  Workload.Report.table
    ~title:
      "DEBRA: padded vs unpadded announcements on the T4-1 model, BST 10^4 \
       25i-25d-50s (Mops/s)"
    ~header ~rows;
  (* Every implemented scheme on one panel: reproduces the paper's §3
     qualitative ranking (RC slowest, HP slow, epochs fast). *)
  run_panel
    ~title:
      "Scheme zoo: every implemented reclaimer, BST 10^4 50i-50d (Mops/s)"
    ~runners:(panel ~ds:"bst" "zoo") ~threads:scale.threads
    ~cfg_of:(base_cfg ~scale ~range:scale.small_range ~ins:50 ~del:50)
    ();
  (* Classical EBR vs DEBRA: what "distributing" EBR buys. *)
  let runners =
    List.map (runner ~ds:"bst") [ "none"; "ebr"; "debra"; "debra+" ]
  in
  run_panel
    ~title:"Classical EBR vs DEBRA (shared bags + full scans vs distributed), BST 10^4 50i-50d (Mops/s)"
    ~runners ~threads:scale.threads
    ~cfg_of:(base_cfg ~scale ~range:scale.small_range ~ins:50 ~del:50)
    ()
