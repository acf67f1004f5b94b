(** E-scale: context-count scaling campaign (64 -> 256 -> 1024).

    The paper's qualitative scaling claim: hazard-pointer reclamation must
    scan every process' announcement slots — an O(nk) walk — to free
    anything, so at a {e fixed per-process limbo budget} its per-op scan
    cost grows linearly with the process count, while DEBRA's distributed
    epochs (and DEBRA+'s neutralizing variant) amortize reclamation to
    O(1) per op and stay near-flat.  (HP's usual escape is to scale its
    scan threshold with Θ(nk) retires, which trades the time back for
    O(n²k) unreclaimed records — at 1024 contexts that is millions of
    records, past any sane capacity; this campaign pins the budget and
    measures the time side of the trade.)

    The sweep runs the T4-family machine model ({!Machine.Config.scale})
    at 64, 256 and 1024 hardware contexts with one process per context, on
    the BST (hp / debra / debra+) and the skip list (hp / debra —
    lock-based updates take no neutralization, as in the paper), and
    renders a divergence table: per-op cost in cycles, and its ratio to
    the same scheme's 64-context cell.

    The sweep weak-scales: per-proc virtual duration is constant and the
    key range grows with the context count, so warm-up, contention and
    the per-process retire rate are comparable across scales and only the
    reclamation term grows.  Total simulated work therefore grows
    linearly with contexts — the 1024-context cell is the expensive one,
    by design.  Per-op cost is a mean over the whole trial and is exactly
    reproducible (virtual cycles, not wall time).

    With [--json] the campaign also measures two host-side throughput
    baselines for the refactored engines and writes everything to
    BENCH_e-scale.json (checked in as BENCH_SIM.json, gated by
    tools/bench_gate.py):
    - scheduler steps/sec: a 256-process contended-counter trial driven
      straight through {!Sim.run} on the indexed ready-set scheduler;
    - explore runs/sec: two list cells of the systematic-exploration
      matrix (one truncated, one exhausted) through the explorer. *)

open Workload.Schemes

(* Cells whose HP-vs-DEBRA divergence regresses fail the run (checked in
   CI's scale smoke); counted here, reported by main. *)
let failures = ref 0

let contexts_sweep = [ 64; 256; 1024 ]

(* Constant per-proc virtual duration across the sweep: per-op cost stays
   comparable between scales, and only the reclamation term grows. *)
let duration_for ~scale = scale.Experiments.duration

(* Fixed per-process limbo budget: small limbo blocks and no Θ(nk) slack
   on HP's scan threshold (it falls back to two blocks = 8 records), so
   scans fire repeatedly at every scale — even in the slow, high-slot-count
   skip-list cells, whose per-proc retire counts would sit under a larger
   threshold for the whole trial — and their O(nk) walk is the measured
   term.  DEBRA+'s suspect threshold is counted in blocks, so shrinking
   blocks must not shrink it in records: 256 blocks * 4 = the default 1024
   records, keeping neutralization a genuine-starvation response rather
   than a small-block artifact (at 1024 contexts a 16-record trigger turns
   into an op-restarting signal storm). *)
let escale_params =
  {
    Reclaim.Intf.Params.default with
    Reclaim.Intf.Params.block_capacity = 4;
    hp_retire_factor = 0;
    suspect_blocks = 256;
  }

(* Weak scaling: the key range grows with the context count so per-process
   key density — and with it the delete success rate, hence the retire rate
   — is comparable across the sweep.  With a fixed range, contention at
   1024 contexts makes most deletes fail, retires per op collapse, and the
   very scans the campaign measures stop firing. *)
let cell_cfg ~scale ~n =
  let machine = Machine.Config.scale ~contexts:n in
  let range = scale.Experiments.small_range * n / 64 in
  let scale = { scale with Experiments.duration = duration_for ~scale } in
  Experiments.base_cfg ~machine ~params:escale_params ~scale ~range ~ins:50
    ~del:50 n

(* Three row kinds: "escale" cells (virtual time, exact) and the "sched"
   and "explore" engine baselines (host wall clock). *)
let table =
  let m = Row.metric in
  {
    Row.key = [ "kind"; "structure"; "scheme"; "contexts"; "cell" ];
    metrics =
      [
        ("ops", m "ops");
        ("virtual_time", m "cycles");
        ("cycles_per_op", m ~better:`Lower "cycles/op");
        ("mops", m ~better:`Higher "Mops/s");
        ("steps", m "steps");
        ("runs", m "schedules");
        ("wall_seconds", m ~exact:false "s");
        ("steps_per_sec", m ~better:`Higher ~exact:false "steps/s");
        ("runs_per_sec", m ~better:`Higher ~exact:false "schedules/s");
      ];
  }

let escale_row ~structure ~scheme ~contexts (o : Workload.Trial.outcome) =
  let open Telemetry.Json in
  [
    ("kind", String "escale");
    ("structure", String structure);
    ("scheme", String scheme);
    ("contexts", Int contexts);
    ("ops", Int o.Workload.Trial.ops);
    ("virtual_time", Int o.Workload.Trial.virtual_time);
    ("cycles_per_op", Float (Experiments.cycles_per_op o));
    ("mops", Float o.Workload.Trial.mops);
  ]

(* One structure's sweep: runners as rows, context counts as columns, each
   cell "cycles/op (xRatio-to-64)". Returns (scheme, [n, cycles/op]). *)
let sweep ~scale ~structure runners =
  let results =
    List.map
      (fun (r : runner) ->
        ( r.rname,
          List.map
            (fun n ->
              let o = r.run (cell_cfg ~scale ~n) in
              Row.add table
                (escale_row ~structure ~scheme:r.rname ~contexts:n o);
              (n, Experiments.cycles_per_op o))
            contexts_sweep ))
      runners
  in
  let header =
    "scheme" :: List.map (fun n -> Printf.sprintf "%d ctx" n) contexts_sweep
  in
  let rows =
    List.map
      (fun (scheme, cells) ->
        let base = match cells with (_, c) :: _ -> c | [] -> 1.0 in
        scheme
        :: List.map
             (fun (_, c) -> Printf.sprintf "%.0f cyc/op (x%.2f)" c (c /. base))
             cells)
      results
  in
  Workload.Report.table
    ~title:
      (Printf.sprintf
         "E-scale / %s: per-op cost vs context count (ratio to 64 ctx)"
         structure)
    ~header ~rows;
  results

let divergence results =
  let ratio scheme =
    match List.assoc_opt scheme results with
    | Some cells -> (
        match (cells, List.rev cells) with
        | (_, first) :: _, (_, last) :: _ when first > 0.0 -> Some (last /. first)
        | _ -> None)
    | None -> None
  in
  (ratio "hp", ratio "debra")

let check_divergence ~structure results =
  match divergence results with
  | Some hp, Some debra ->
      Printf.printf
        "  %s divergence 64 -> %d ctx: hp x%.2f, debra x%.2f — %s\n"
        structure
        (List.fold_left max 0 contexts_sweep)
        hp debra
        (if hp > debra then "hp per-op cost grows faster (expected)"
         else "UNEXPECTED: hp did not diverge from debra");
      if hp <= debra then incr failures
  | _ ->
      Printf.printf "  %s divergence: missing hp or debra cell\n" structure;
      incr failures

(* Scheduler-throughput baseline: a contended shared-counter workload
   driven straight through Sim.run, no reclamation — measures the indexed
   ready-set / min-heap scheduler core itself. *)
let sched_baseline () =
  let n = 256 in
  let machine = Machine.Config.scale ~contexts:n in
  let group = Runtime.Group.create n in
  let counters = Runtime.Shared_array.create 64 in
  let bodies =
    Array.init n (fun pid ->
        fun () ->
         let ctx = Runtime.Group.ctx group pid in
         for i = 0 to 199 do
           ignore (Runtime.Shared_array.faa ctx counters (pid mod 64) 1);
           Runtime.Ctx.work ctx 20;
           if i mod 16 = pid mod 16 then Runtime.Ctx.stall ctx (100 + pid)
         done)
  in
  let t0 = Unix.gettimeofday () in
  let r = Sim.run ~machine group bodies in
  let wall = Unix.gettimeofday () -. t0 in
  let sps = float_of_int r.Sim.steps /. wall in
  Printf.printf
    "  scheduler: %d procs, %d steps, %.2fs wall, %.0f steps/sec\n"
    n r.Sim.steps wall sps;
  let open Telemetry.Json in
  Row.add table
    [
      ("kind", String "sched");
      ("contexts", Int n);
      ("steps", Int r.Sim.steps);
      ("virtual_time", Int r.Sim.virtual_time);
      ("wall_seconds", Float wall);
      ("steps_per_sec", Float sps);
    ]

(* Explore-throughput baseline: one exhausted and one truncated list cell
   of the lincheck matrix. *)
let explore_baseline () =
  List.iter
    (fun scheme ->
      let t0 = Unix.gettimeofday () in
      let v =
        Workload.Lin_harness.explore ~budget:2 ~max_runs:300 ~ds:"list"
          ~scheme Workload.Lin_harness.matrix_config
      in
      let wall = Unix.gettimeofday () -. t0 in
      let runs =
        match v with
        | Lincheck.Explore.Pass st -> st.Lincheck.Explore.runs
        | Lincheck.Explore.Fail { stats; _ } -> stats.Lincheck.Explore.runs
      in
      let rps = float_of_int runs /. wall in
      Printf.printf
        "  explore: list x %-5s %d runs, %.2fs wall, %.0f runs/sec\n"
        scheme runs wall rps;
      let open Telemetry.Json in
      Row.add table
        [
          ("kind", String "explore");
          ("cell", String ("list x " ^ scheme));
          ("runs", Int runs);
          ("wall_seconds", Float wall);
          ("runs_per_sec", Float rps);
        ])
    [ "debra"; "ebr" ]

let run ~scale =
  Printf.printf "\n===== E-scale (context-count scaling campaign) =====\n";
  Printf.printf
    "One process per hardware context on the scaled T4 model; per-op cost \
     in virtual cycles.\nFixed per-process limbo budget: HP's O(nk) \
     announcement scan should diverge as contexts grow;\nDEBRA/DEBRA+ \
     amortize reclamation and should stay near-flat.\n";
  let bst =
    sweep ~scale ~structure:"bst"
      (List.map (runner ~ds:"bst") [ "debra"; "debra+"; "hp" ])
  in
  check_divergence ~structure:"bst" bst;
  let sl =
    sweep ~scale ~structure:"skiplist"
      (List.map (runner ~ds:"skiplist") [ "debra"; "hp" ])
  in
  check_divergence ~structure:"skiplist" sl;
  Printf.printf "\n  engine throughput baselines (wall-clock, host-side):\n";
  sched_baseline ();
  explore_baseline ()
