(** The E-kv campaign: the sharded KV/session store (lib/kv) under
    open-loop load (lib/loadgen), with tail-latency SLO verdicts.

    Every other experiment in this harness is closed-loop: each process
    issues its next operation the moment the previous one returns, so a
    scheme that stalls simply does less work and the damage shows up only
    as throughput.  A session store is the workload where that hides
    exactly what matters: requests arrive when clients send them, and a
    reclamation stall (a neutralization storm, an HP scan, a limbo flush)
    makes {e queued} requests late — the coordinated-omission effect.
    Here arrivals are scheduled in absolute time ({!Loadgen.Arrivals}),
    latency is measured from the scheduled arrival, and each scheme's
    p50/p99/p999 per operation kind and per shard is judged against an
    SLO budget ({!Telemetry.Slo}).

    Every scheme runs the shared open-loop cell ({!Kv_cell}: codec-mixed
    keys, session-key TTLs) on a skip-list index, zipfian keys and the
    session mix.  Rows ({!table}) are one "run" row per scheme plus one
    "slo" row per verdict.

    [--explore-free] (sim only) runs every cell twice and fails loudly if
    the two JSON rows differ by a byte: the whole campaign — arrivals,
    keys, interleaving, histograms — must replay exactly from the seed. *)

(* Set by bench/main.ml's kv flags. *)
let shards = ref 4
let arrival_name = ref "burst"
let arrival_rate = ref 400_000.0
let requests = ref 0 (* 0 = pick from scale *)
let nkeys = ref 4_096
let slo_spec = ref "p99=25000,p999=120000"
let nprocs = ref 4
let explore_free = ref false

(* The campaign's fixed shape: a skip-list index per shard, zipfian key
   popularity (theta 0.99) and the session mix. *)
let structure = "skiplist"
let dist = Loadgen.Dist.Zipfian 0.99
let mix = Option.get (Loadgen.mix_of_string "session")

type cfg = {
  backend : Exec.Backend.t;
  nprocs : int;
  shards : int;
  requests : int;
  nkeys : int;
  arrivals : Loadgen.Arrivals.t;
  slo : Telemetry.Slo.budget;
  seed : int;
}

(* One row per scheme ([kind] "run") plus one per SLO verdict ([kind]
   "slo", [class] = the operation kind or shard it judges). *)
let table ~exact =
  let m ?better unit = Row.metric ?better ~exact unit in
  {
    Row.key =
      [
        "kind"; "scheme"; "structure"; "backend"; "shards"; "nprocs";
        "requests"; "dist"; "arrivals"; "mix"; "class";
      ];
    metrics =
      [
        ("served", m "requests");
        ("shed", m "requests");
        ("failed", m "requests");
        ("elapsed_cycles", m "cycles");
        ("throughput_mops", m ~better:`Higher "Mops/s");
        ("bytes_claimed", m "bytes");
        ("bytes_per_req", m "bytes");
        ("limbo_after_flush", m "records");
        ("live_entries", m "entries");
        ("slo_pass", m "bool");
        ("wall_seconds", Row.metric ~exact:false "s");
        ("count", m "requests");
        ("demand", m "requests");
        ("p50_ns", m "ns");
        ("p99_ns", m ~better:`Lower "ns");
        ("p999_ns", m "ns");
        ("pass", m "bool");
      ];
  }

type row = {
  scheme : string;
  throughput_mops : float;
  served : int;
  verdicts : Telemetry.Slo.verdict list;
  rows : (string * Telemetry.Json.t) list list;
}

let run (module RM : Reclaim.Intf.RECORD_MANAGER) ~sname (c : cfg) : row =
  let module C = Kv_cell.Make (RM) in
  let module E = (val Exec.Backend.runner c.backend) in
  let clock = E.clock in
  let group = Runtime.Group.create ~seed:c.seed c.nprocs in
  let cell =
    C.setup ~structure ~shards:c.shards ~nkeys:c.nkeys ~requests:c.requests
      ~dist ~mix ~arrivals:c.arrivals ~clock ~seed:c.seed group
  in
  let store = cell.C.store and plan = cell.C.plan in
  let rec_ =
    Telemetry.Recorder.create
      ~cycles_per_ns:(Exec.Clock.cycles_per_ns clock)
      ~nprocs:c.nprocs ()
  in
  (* Reclamation-pressure counters (bounded-patience alloc retries and
     emergency-reclaim escalations) ride the recorder alongside the
     event-bus counters. *)
  Telemetry.Recorder.add_counter rec_ ~name:"kv_alloc_retries" (fun () ->
      (C.pressure store).Reclaim.Intf.Pressure.alloc_retries);
  Telemetry.Recorder.add_counter rec_ ~name:"kv_emergency_reclaims" (fun () ->
      (C.pressure store).Reclaim.Intf.Pressure.emergency_reclaims);
  Telemetry.Recorder.add_counter rec_ ~name:"kv_emergency_freed" (fun () ->
      (C.pressure store).Reclaim.Intf.Pressure.emergency_freed);
  let served = Array.make c.nprocs 0 in
  let noutcomes = List.length Loadgen.outcomes in
  let oidx : Loadgen.outcome -> int = function
    | Served -> 0
    | Shed -> 1
    | Failed -> 2
  in
  let ocounts = Array.make_matrix c.nprocs noutcomes 0 in
  (* No admission control: every request is served (the overload
     campaign puts a per-shard limbo watermark in front of the same
     cell). *)
  let exec_op ctx ~due:_ op =
    let shard, _, work = C.request cell ctx op in
    work ();
    (shard, Loadgen.Served)
  in
  (* Each served request lands in two histograms: its operation kind and
     its shard; unserved outcomes are tallied and charged against demand
     at judgement time (they sort as infinite latency).  Every process
     records into its own buffer, merged after the run (same machinery as
     the trial pipeline). *)
  let locals = Telemetry.Recorder.locals rec_ in
  let record ~pid ~op ~shard ~outcome ~start ~finish =
    ocounts.(pid).(oidx outcome) <- ocounts.(pid).(oidx outcome) + 1;
    if outcome = Loadgen.Served then begin
      served.(pid) <- served.(pid) + 1;
      let l = locals.(pid) in
      Telemetry.Recorder.local_op l ~kind:(Loadgen.op_kind op) ~start ~finish;
      Telemetry.Recorder.local_op l
        ~kind:(Printf.sprintf "shard%d" shard)
        ~start ~finish
    end
  in
  let bodies = Loadgen.bodies plan ~group ~record ~exec_op in
  let result = E.run group bodies in
  Telemetry.Recorder.merge_locals rec_ locals;
  let served = Array.fold_left ( + ) 0 served in
  C.check_invariants store;
  C.flush store cell.C.ctx0;
  let scope = Printf.sprintf "%s/%s" sname structure in
  (* Demand per kind comes from the request plan, not from what the
     server happened to serve — a shard that sheds everything must not
     shrink its own denominator. *)
  let demand_tbl = Hashtbl.create 16 in
  let bump k =
    Hashtbl.replace demand_tbl k
      (1 + Option.value ~default:0 (Hashtbl.find_opt demand_tbl k))
  in
  Array.iter
    (fun op ->
      bump (Loadgen.op_kind op);
      bump
        (Printf.sprintf "shard%d"
           (C.shard_of_key store (Kv_cell.key_of_rank (Kv_cell.rank op)))))
    plan.Loadgen.ops;
  let demand_of kind =
    Option.value ~default:0 (Hashtbl.find_opt demand_tbl kind)
  in
  let judge kind =
    match Telemetry.Recorder.histogram rec_ kind with
    | None -> None
    | Some h ->
        Some
          (Telemetry.Slo.judge_demand c.slo ~scope ~kind
             ~demand:(demand_of kind) h)
  in
  let kinds =
    List.filter
      (fun (_, pct) -> pct > 0)
      [
        ("get", mix.Loadgen.get);
        ("put", mix.Loadgen.put);
        ("delete", mix.Loadgen.delete);
        ("scan", mix.Loadgen.scan);
      ]
    |> List.map fst
  in
  let shard_kinds = List.init c.shards (fun i -> Printf.sprintf "shard%d" i) in
  let verdicts = List.filter_map judge (kinds @ shard_kinds) in
  let throughput_mops =
    Exec.Clock.mops clock ~ops:served ~cycles:result.Exec.Intf.elapsed_cycles
  in
  let open Telemetry.Json in
  let key kind =
    [
      ("kind", String kind);
      ("scheme", String sname);
      ("structure", String structure);
      ("backend", String E.name);
      ("shards", Int c.shards);
      ("nprocs", Int c.nprocs);
      ("requests", Int c.requests);
      ("dist", String (Loadgen.Dist.to_string dist));
      ("arrivals", String (Loadgen.Arrivals.to_string c.arrivals));
      ("mix", String (Loadgen.mix_to_string mix));
    ]
  in
  let outcome o =
    ( Loadgen.outcome_name o,
      Int (Array.fold_left (fun n per_pid -> n + per_pid.(oidx o)) 0 ocounts) )
  in
  let run_row =
    key "run"
    @ [
        ("served", Int served);
        outcome Loadgen.Shed;
        outcome Loadgen.Failed;
        ("elapsed_cycles", Int result.Exec.Intf.elapsed_cycles);
        ("throughput_mops", Float throughput_mops);
        ("bytes_claimed", Int (C.bytes_claimed store));
        ( "bytes_per_req",
          Float
            (float_of_int (C.bytes_claimed store)
            /. float_of_int (max 1 served)) );
        ("limbo_after_flush", Int (C.limbo store));
        ("live_entries", Int (C.size store));
        ("slo_pass", Bool (Telemetry.Slo.all_pass verdicts));
      ]
    (* Wall-clock time is genuinely non-deterministic; keeping it out of
       sim rows keeps `--explore-free` (and the golden test) a
       byte-identity check. *)
    @
    if E.deterministic then []
    else [ ("wall_seconds", Float result.Exec.Intf.wall_seconds) ]
  in
  let slo_row (v : Telemetry.Slo.verdict) =
    key "slo"
    @ [
        ("class", String v.Telemetry.Slo.kind);
        ("count", Int v.Telemetry.Slo.count);
        ("demand", Int v.Telemetry.Slo.demand);
        ("p50_ns", Int v.Telemetry.Slo.p50);
        ("p99_ns", Int v.Telemetry.Slo.p99);
        ("p999_ns", Int v.Telemetry.Slo.p999);
        ("pass", Bool v.Telemetry.Slo.pass);
      ]
  in
  {
    scheme = sname;
    throughput_mops;
    served;
    verdicts;
    rows = run_row :: List.map slo_row verdicts;
  }

(* The campaign's columns, in order. *)
let scheme_names = [ "none"; "ebr"; "debra"; "debra+"; "hp"; "vbr"; "hyaline" ]
let schemes = List.map (fun s -> (s, Kv_cell.rm s)) scheme_names

let cfg_of_flags ~scale =
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt in
  let arrivals =
    match Loadgen.Arrivals.of_spec ~rate:!arrival_rate !arrival_name with
    | Some a -> a
    | None ->
        fail "kv: unknown arrival pattern %S (expected %s)" !arrival_name
          (String.concat "|" Loadgen.Arrivals.names)
  in
  let slo =
    match Telemetry.Slo.budget_of_spec !slo_spec with
    | b -> b
    | exception Invalid_argument msg -> fail "kv: %s" msg
  in
  let requests =
    if !requests > 0 then !requests
    else if scale == Experiments.full_scale then 100_000
    else 20_000
  in
  {
    backend = !Experiments.backend;
    nprocs = !nprocs;
    shards = !shards;
    requests;
    nkeys = !nkeys;
    arrivals;
    slo;
    seed = 7;
  }

let print_row (r : row) =
  Printf.printf "%-8s %8.3f Mreq/s  served %d\n" r.scheme r.throughput_mops
    r.served;
  List.iter
    (fun (v : Telemetry.Slo.verdict) ->
      Printf.printf "    %-10s n=%-7d p50=%-8d p99=%-8d p999=%-8d %s\n"
        v.Telemetry.Slo.kind v.Telemetry.Slo.count v.Telemetry.Slo.p50
        v.Telemetry.Slo.p99 v.Telemetry.Slo.p999
        (if v.Telemetry.Slo.pass then "SLO ok"
         else
           String.concat ", "
             (List.map
                (fun (b : Telemetry.Slo.breach) ->
                  Printf.sprintf "%s %dns > %dns budget"
                    b.Telemetry.Slo.percentile b.Telemetry.Slo.observed_ns
                    b.Telemetry.Slo.budget_ns)
                v.Telemetry.Slo.breaches)))
    r.verdicts;
  Printf.printf "%!"

let run ~scale =
  let cfg = cfg_of_flags ~scale in
  Printf.printf
    "E-kv: open-loop sharded KV/session store\n\
     backend %s | %d shards x %s | %d procs | %d requests over %d keys\n\
     %s arrivals | %s | mix %s | SLO %s\n\n\
     %!"
    (Exec.Backend.to_string cfg.backend)
    cfg.shards structure cfg.nprocs cfg.requests cfg.nkeys
    (Loadgen.Arrivals.to_string cfg.arrivals)
    (Loadgen.Dist.to_string dist)
    (Loadgen.mix_to_string mix)
    !slo_spec;
  let table = table ~exact:(cfg.backend = `Sim) in
  let rows_text r =
    Telemetry.Json.(to_string (List (List.map (fun f -> Obj f) r.rows)))
  in
  List.iter
    (fun (sname, rm) ->
      let r = run rm ~sname cfg in
      (if !explore_free then
         match cfg.backend with
         | `Domains ->
             Printf.eprintf
               "kv: --explore-free needs the deterministic sim backend; \
                skipping the replay check\n\
                %!"
         | `Sim ->
             let a = rows_text r and b = rows_text (run rm ~sname cfg) in
             if not (String.equal a b) then begin
               Printf.eprintf
                 "kv: %s replay diverged under --explore-free:\n%s\n%s\n" sname
                 a b;
               exit 1
             end);
      print_row r;
      List.iter (Row.add table) r.rows)
    (Kv_cell.select ~campaign:"kv" fst schemes)
