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

    The store rides on any SET-face structure; keys mix the codec's two
    paths (even ranks are short injective keys, odd ranks are long hashed
    session keys), and run-time puts of session keys carry a TTL of a
    quarter of the schedule span, so lazy expiry drives retire traffic
    through the unlink-witness path mid-run.

    [--explore-free] (sim only) runs every cell twice and fails loudly if
    the two JSON rows differ by a byte: the whole campaign — arrivals,
    keys, interleaving, histograms — must replay exactly from the seed. *)

(* Set by bench/main.ml's kv flags. *)
let shards = ref 4
let structure = ref "skiplist"
let dist_name = ref "zipfian"
let arrival_name = ref "burst"
let arrival_rate = ref 400_000.0
let requests = ref 0 (* 0 = pick from scale *)
let nkeys = ref 4_096
let mix_name = ref "session"
let slo_spec = ref "p99=25000,p999=120000"
let nprocs = ref 4
let explore_free = ref false
let scheme_filter = ref "" (* comma list; empty = all *)

type cfg = {
  backend : Exec.Backend.t;
  nprocs : int;
  shards : int;
  structure : string;
  requests : int;
  nkeys : int;
  dist : Loadgen.Dist.t;
  arrivals : Loadgen.Arrivals.t;
  mix : Loadgen.mix;
  slo : Telemetry.Slo.budget;
  seed : int;
}

(* Even ranks take the codec's short injective path (<= 7 bytes), odd
   ranks the long hashed-session path with read-time verification. *)
let key_of_rank r =
  if r land 1 = 0 then Printf.sprintf "k%06d" r
  else Printf.sprintf "session:%08d" r

let value_of_rank r = Printf.sprintf "v%024d" r

type row = {
  scheme : string;
  throughput_mops : float;
  served : int;
  verdicts : Telemetry.Slo.verdict list;
  json : Telemetry.Json.t;
}

module Make_runner (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module Store = Kv.Store.Make (RM)

  let run ~sname (c : cfg) : row =
    let module E = (val Exec.Backend.runner c.backend) in
    let clock = E.clock in
    let group = Runtime.Group.create ~seed:c.seed c.nprocs in
    (* Worst-case routing skew puts every key on one shard; capacity is
       per shard, so size each for the whole run. *)
    let store =
      Store.create ~structure:c.structure ~shards:c.shards
        ~capacity_per_shard:(c.nkeys + c.requests) ~group ()
    in
    let plan =
      Loadgen.generate ~n:c.requests ~nkeys:c.nkeys ~dist:c.dist ~mix:c.mix
        ~arrivals:c.arrivals ~clock ~seed:c.seed
    in
    (* Session keys put during the run expire a quarter of the schedule
       span later, so hot keys are re-read past their deadline and the
       lazy-expiry retire path runs throughout. *)
    let ttl_cycles = max 1 (plan.Loadgen.arrivals.(c.requests - 1) / 4) in
    let ttl_for r = if r land 1 = 1 then Some ttl_cycles else None in
    (* Prefill (uninstrumented: backend hooks are not installed yet), no
       TTLs — prefill cannot date deadlines in the backend's time base. *)
    let ctx0 = Runtime.Group.ctx group 0 in
    for r = 0 to c.nkeys - 1 do
      Store.put store ctx0 ~key:(key_of_rank r) ~value:(value_of_rank r)
    done;
    let rec_ =
      Telemetry.Recorder.create
        ~cycles_per_ns:(Exec.Clock.cycles_per_ns clock)
        ~nprocs:c.nprocs ()
    in
    (* Reclamation-pressure counters (bounded-patience alloc retries and
       emergency-reclaim escalations) ride the recorder alongside the
       event-bus counters. *)
    Telemetry.Recorder.add_counter rec_ ~name:"kv_alloc_retries" (fun () ->
        (Store.pressure store).Reclaim.Intf.Pressure.alloc_retries);
    Telemetry.Recorder.add_counter rec_ ~name:"kv_emergency_reclaims"
      (fun () ->
        (Store.pressure store).Reclaim.Intf.Pressure.emergency_reclaims);
    Telemetry.Recorder.add_counter rec_ ~name:"kv_emergency_freed" (fun () ->
        (Store.pressure store).Reclaim.Intf.Pressure.emergency_freed);
    let served = Array.make c.nprocs 0 in
    let noutcomes = List.length Loadgen.outcomes in
    let oidx : Loadgen.outcome -> int = function
      | Served -> 0
      | Shed -> 1
      | Failed -> 2
    in
    let ocounts = Array.make_matrix c.nprocs noutcomes 0 in
    (* The plain E-kv campaign has no admission control: every request is
       served.  The overload campaign (e_overload.ml) reuses this runner
       shape with a per-shard limbo watermark deciding the outcome. *)
    let exec_op ctx ~due:_ op =
      let shard =
        match op with
        | Loadgen.Get r ->
            let k = key_of_rank r in
            ignore (Store.get store ctx k);
            Store.shard_of_key store k
        | Loadgen.Put r ->
            let k = key_of_rank r in
            Store.put ?ttl:(ttl_for r) store ctx ~key:k
              ~value:(value_of_rank r);
            Store.shard_of_key store k
        | Loadgen.Delete r ->
            let k = key_of_rank r in
            ignore (Store.delete store ctx k);
            Store.shard_of_key store k
        | Loadgen.Scan (start, len) ->
            for i = start to start + len - 1 do
              ignore (Store.get store ctx (key_of_rank (i mod c.nkeys)))
            done;
            Store.shard_of_key store (key_of_rank start)
      in
      (shard, Loadgen.Served)
    in
    (* Each served request lands in two histograms: its operation kind
       and its shard; unserved outcomes are tallied and charged against
       demand at judgement time (they sort as infinite latency).  The
       deterministic simulator records straight into the recorder;
       domains record into per-pid buffers merged after the run (same
       machinery as the trial pipeline). *)
    let locals =
      if E.deterministic then None else Some (Telemetry.Recorder.locals rec_)
    in
    let record =
      match locals with
      | None ->
          fun ~pid ~op ~shard ~outcome ~start ~finish ->
            ocounts.(pid).(oidx outcome) <- ocounts.(pid).(oidx outcome) + 1;
            if outcome = Loadgen.Served then begin
              served.(pid) <- served.(pid) + 1;
              Telemetry.Recorder.op rec_ ~pid ~kind:(Loadgen.op_kind op)
                ~start ~finish;
              Telemetry.Recorder.op rec_ ~pid
                ~kind:(Printf.sprintf "shard%d" shard)
                ~start ~finish
            end
      | Some ls ->
          fun ~pid ~op ~shard ~outcome ~start ~finish ->
            ocounts.(pid).(oidx outcome) <- ocounts.(pid).(oidx outcome) + 1;
            if outcome = Loadgen.Served then begin
              served.(pid) <- served.(pid) + 1;
              Telemetry.Recorder.local_op ls.(pid) ~kind:(Loadgen.op_kind op)
                ~start ~finish;
              Telemetry.Recorder.local_op ls.(pid)
                ~kind:(Printf.sprintf "shard%d" shard)
                ~start ~finish
            end
    in
    let bodies = Loadgen.bodies plan ~group ~record ~exec_op in
    let result = E.run group bodies in
    Option.iter (Telemetry.Recorder.merge_locals rec_) locals;
    let served = Array.fold_left ( + ) 0 served in
    Store.check_invariants store;
    Store.flush store ctx0;
    let scope = Printf.sprintf "%s/%s" sname c.structure in
    (* Demand per kind comes from the request plan, not from what the
       server happened to serve — a shard that sheds everything must
       not shrink its own denominator. *)
    let demand_tbl = Hashtbl.create 16 in
    let bump k =
      Hashtbl.replace demand_tbl k
        (1 + Option.value ~default:0 (Hashtbl.find_opt demand_tbl k))
    in
    Array.iter
      (fun op ->
        bump (Loadgen.op_kind op);
        let rank =
          match op with
          | Loadgen.Get r | Loadgen.Put r | Loadgen.Delete r -> r
          | Loadgen.Scan (start, _) -> start
        in
        bump
          (Printf.sprintf "shard%d"
             (Store.shard_of_key store (key_of_rank rank))))
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
        (fun (k, pct) -> ignore k; pct > 0)
        [
          ("get", c.mix.Loadgen.get);
          ("put", c.mix.Loadgen.put);
          ("delete", c.mix.Loadgen.delete);
          ("scan", c.mix.Loadgen.scan);
        ]
      |> List.map fst
    in
    let shard_kinds =
      List.init c.shards (fun i -> Printf.sprintf "shard%d" i)
    in
    let verdicts = List.filter_map judge (kinds @ shard_kinds) in
    let throughput_mops =
      Exec.Clock.mops clock ~ops:served
        ~cycles:result.Exec.Intf.elapsed_cycles
    in
    let json =
      Telemetry.Json.Obj
        ([
           ("experiment", Telemetry.Json.String "kv");
           ("scheme", Telemetry.Json.String sname);
           ("structure", Telemetry.Json.String c.structure);
           ("backend", Telemetry.Json.String E.name);
           ("shards", Telemetry.Json.Int c.shards);
           ("nprocs", Telemetry.Json.Int c.nprocs);
           ("requests", Telemetry.Json.Int c.requests);
           ("served", Telemetry.Json.Int served);
           ( "outcomes",
             Telemetry.Json.Obj
               (List.map
                  (fun o ->
                    ( Loadgen.outcome_name o,
                      Telemetry.Json.Int
                        (Array.fold_left
                           (fun acc per_pid -> acc + per_pid.(oidx o))
                           0 ocounts) ))
                  Loadgen.outcomes) );
           ("dist", Telemetry.Json.String (Loadgen.Dist.to_string c.dist));
           ( "arrivals",
             Telemetry.Json.String (Loadgen.Arrivals.to_string c.arrivals) );
           ("mix", Telemetry.Json.String (Loadgen.mix_to_string c.mix));
           ("elapsed_cycles", Telemetry.Json.Int result.Exec.Intf.elapsed_cycles);
           ("throughput_mops", Telemetry.Json.Float throughput_mops);
           ("bytes_claimed", Telemetry.Json.Int (Store.bytes_claimed store));
           ( "bytes_per_req",
             Telemetry.Json.Float
               (float_of_int (Store.bytes_claimed store)
               /. float_of_int (max 1 served)) );
           ("limbo_after_flush", Telemetry.Json.Int (Store.limbo store));
           ("live_entries", Telemetry.Json.Int (Store.size store));
           ( "slo_pass",
             Telemetry.Json.Bool (Telemetry.Slo.all_pass verdicts) );
           ( "verdicts",
             Telemetry.Json.List
               (List.map Telemetry.Slo.verdict_json verdicts) );
         ]
        @
        (* Wall-clock time is genuinely non-deterministic; keeping it out
           of sim rows keeps `--explore-free` (and the golden test) a
           byte-identity check. *)
        if E.deterministic then []
        else [ ("wall_seconds", Telemetry.Json.Float result.Exec.Intf.wall_seconds) ]
        )
    in
    { scheme = sname; throughput_mops; served; verdicts; json }
end

(* The campaign's columns, in order. *)
let scheme_names = [ "none"; "ebr"; "debra"; "debra+"; "hp"; "vbr"; "hyaline" ]

let schemes : (string * (sname:string -> cfg -> row)) list =
  List.map
    (fun s ->
      let module RM = (val Reclaim.Registry.(rm Exp2 (find s))) in
      let module R = Make_runner (RM) in
      (s, R.run))
    scheme_names

let cfg_of_flags ~scale =
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt in
  let dist =
    match Loadgen.Dist.of_string !dist_name with
    | Some d -> d
    | None ->
        fail "kv: unknown distribution %S (expected %s)" !dist_name
          (String.concat "|" Loadgen.Dist.names)
  in
  let arrivals =
    match Loadgen.Arrivals.of_spec ~rate:!arrival_rate !arrival_name with
    | Some a -> a
    | None ->
        fail "kv: unknown arrival pattern %S (expected %s)" !arrival_name
          (String.concat "|" Loadgen.Arrivals.names)
  in
  let mix =
    match Loadgen.mix_of_string !mix_name with
    | Some m -> m
    | None ->
        fail "kv: unknown mix %S (expected %s)" !mix_name
          (String.concat "|" Loadgen.mix_names)
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
    structure = !structure;
    requests;
    nkeys = !nkeys;
    dist;
    arrivals;
    mix;
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
    cfg.shards cfg.structure cfg.nprocs cfg.requests cfg.nkeys
    (Loadgen.Arrivals.to_string cfg.arrivals)
    (Loadgen.Dist.to_string cfg.dist)
    (Loadgen.mix_to_string cfg.mix)
    !slo_spec;
  let selected =
    if !scheme_filter = "" then schemes
    else
      let want = String.split_on_char ',' !scheme_filter in
      let missing =
        List.filter (fun w -> not (List.mem_assoc w schemes)) want
      in
      if missing <> [] then begin
        Printf.eprintf "kv: unknown scheme(s) %s (expected %s)\n"
          (String.concat "," missing)
          (String.concat "|" (List.map fst schemes));
        exit 2
      end;
      List.filter (fun (s, _) -> List.mem s want) schemes
  in
  List.iter
    (fun (sname, run) ->
      let r = run ~sname cfg in
      (if !explore_free then
         match cfg.backend with
         | `Domains ->
             Printf.eprintf
               "kv: --explore-free needs the deterministic sim backend; \
                skipping the replay check\n\
                %!"
         | `Sim ->
             let r2 = run ~sname cfg in
             let a = Telemetry.Json.to_string r.json
             and b = Telemetry.Json.to_string r2.json in
             if not (String.equal a b) then begin
               Printf.eprintf
                 "kv: %s replay diverged under --explore-free:\n%s\n%s\n" sname
                 a b;
               exit 1
             end);
      print_row r;
      Experiments.record_kv_row r.json)
    selected
