(** [explore-b2]: exhaustive budget-2 schedule exploration of every
    {list, bst, queue} x scheme cell, serially — the verification run
    every change pays.

    The program under test per cell is two processes of three operations
    over two keys, prefilled with one element.  It is fixed (the harness's
    default seed): another seed changes the number of schedules severalfold,
    which would make the run time a property of the seed instead of the
    code.  Set-up is a smoke run of every cell under the default schedule;
    then each cell is explored to exhaustion.  The check: every cell
    passes and none hits the run cap. *)

module LH = Workload.Lin_harness

let structures = [ "list"; "bst"; "queue" ]

let cells =
  List.concat_map (fun ds -> List.map (fun s -> (ds, s)) LH.scheme_names) structures

(* Far above what any cell needs, so a cell that reaches it has grown. *)
let max_runs = 200_000

let config =
  {
    LH.default_config with
    LH.nprocs = 2;
    ops_per_proc = 3;
    key_range = 2;
    prefill = 1;
    capacity = 256;
  }

(* The harness builds a fresh world for every schedule.  Capturing the
   environment its Record Manager is created with exposes that world's
   record heap, whose peak is this workload's memory metric. *)
let heap = ref (Memory.Heap.create ())

module Capture (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  include RM

  let create env =
    heap := env.Reclaim.Intf.Env.heap;
    RM.create env
end

let pack (module RM : Reclaim.Intf.RECORD_MANAGER) =
  let module M = LH.Mk (Capture (RM)) in
  M.run

(** The harness's scheme to Record Manager pairing ([Lin_harness.packs]),
    each behind {!Capture}. *)
let runs =
  Workload.Schemes.
    [
      ("none", pack (module RM1_none));
      ("ebr", pack (module RM2_ebr));
      ("qsbr", pack (module RM2_qsbr));
      ("debra", pack (module RM2_debra));
      ("debra+", pack (module RM2_debra_plus));
      ("hp", pack (module RM2_hp));
      ("rc", pack (module RM2_rc));
      ("threadscan", pack (module RM2_ts));
      ("stacktrack", pack (module RM2_st));
      ("vbr", pack (module RM2_vbr));
      ("hyaline", pack (module RM2_hyaline));
    ]

let run_once ~ds ~scheme policy = (List.assoc scheme runs) ~ds config policy

(* The explorer runs in the calling domain; its spans go on pid 0. *)
let ctx = Runtime.Ctx.make ~pid:0 ~nprocs:1 ~seed:0

let rep ~traced =
  let t0 = Metrics.now_ns () in
  List.iter (fun (ds, scheme) -> ignore (run_once ~ds ~scheme `Min_time)) cells;
  let setup_s = Metrics.seconds_since t0 in
  if traced then begin
    Span.set_clock (fun _ -> Metrics.now_ns ());
    Span.limbo_gauge := (fun () -> 0);
    Span.reset ~n:1 ~cycles_per_us:1000.
  end;
  let lat = ref (Array.make 16_384 0) and n = ref 0 in
  let peak = ref 0 in
  let schedules = ref 0 and branch_points = ref 0 and problems = ref [] in
  let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
  let w0 = Gc.minor_words () in
  let start = Metrics.now_ns () in
  List.iter
    (fun (ds, scheme) ->
      let spec = LH.spec_of_ds ds in
      let run_one policy =
        let s = Metrics.now_ns () in
        if traced then Span.enter ctx Span.k_schedule;
        let h =
          match run_once ~ds ~scheme policy with
          | h ->
              if traced then Span.leave ctx;
              h
          | exception e -> if traced then Span.unwind ctx e else raise e
        in
        if !n = Array.length !lat then
          lat := Array.append !lat (Array.make !n 0);
        !lat.(!n) <- Metrics.now_ns () - s;
        incr n;
        peak := max !peak (Memory.Heap.bytes_peak !heap);
        h
      in
      let check h =
        match Lincheck.Checker.check spec h with
        | Lincheck.Checker.Linearizable -> None
        | v -> Some (Lincheck.Checker.verdict_to_string v)
      in
      match Lincheck.Explore.explore ~budget:2 ~max_runs ~run_one ~check () with
      | Lincheck.Explore.Pass st ->
          schedules := !schedules + st.Lincheck.Explore.runs;
          branch_points := !branch_points + st.Lincheck.Explore.branch_points;
          if st.Lincheck.Explore.truncated then
            problems := Printf.sprintf "%s x %s truncated" ds scheme :: !problems
      | v ->
          problems :=
            Printf.sprintf "%s x %s: %s" ds scheme (LH.verdict_summary v)
            :: !problems)
    cells;
  let wall_s = Metrics.seconds_since start in
  let minor_words = Gc.minor_words () -. w0 in
  let recorded = Span.stop () in
  let spans = if traced then Some (Span.summary recorded) else None in
  let us q = float_of_int (Metrics.percentile !lat ~len:!n q) /. 1e3 in
  let failed = List.length !problems in
  let layers =
    [
      ("gc.minor_words_per_op", minor_words /. float_of_int (max 1 !n));
      ( "gc.minor_collections_per_s",
        float_of_int ((Gc.quick_stat ()).Gc.minor_collections - gc0) /. wall_s );
      ("explore.schedules", float_of_int !schedules);
      ("explore.branch_points", float_of_int !branch_points);
      ("explore.schedules_per_s", float_of_int !schedules /. wall_s);
    ]
    @
    match spans with
    | None -> []
    | Some sp -> Metrics.span_layers sp ~ns_of_ticks:Fun.id
  in
  {
    Metrics.setup_s;
    units = !n;
    wall_s;
    p50_us = us 0.5;
    p99_us = us 0.99;
    peak_mib = float_of_int !peak /. 1048576.;
    attempted = List.length cells;
    failed;
    problems = List.rev !problems;
    layers;
    virtual_values = [| !schedules; !branch_points |];
    spans = recorded;
  }
