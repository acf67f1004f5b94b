(** The VBR/Hyaline-vs-DEBRA+ throughput sweep (BENCH_SWEEP.json).

    The two next-generation reclaimers ride the same Record Manager face
    as the paper's schemes; this campaign pins their cost story against
    DEBRA+ — the paper's best performer — on two structures and both
    execution backends:

    - {e sim} cells run in deterministic virtual time: Mops/s and
      cycles/op are exact functions of the code, so the regression gate
      (tools/bench_gate.py) holds them to the normal tolerance against
      the checked-in baseline;
    - {e domains} cells run on real OCaml 5 domains against the wall
      clock: their throughput is recorded as [wall_mops], declared
      informational (no direction), so the rows document
      real-parallelism behaviour without making CI hostage to runner
      hardware.

    Every cell reuses the exp2-shape workload (prefilled structure,
    50i-50d, reclaimed records reused through the pool), so the numbers
    sit directly beside Fig. 8 (right). *)

(* (structure, runner-table variant): the zoo table carries every
   implemented scheme on the BST; the list's exp2 table was grown the
   same way. *)
let structures = [ ("bst", "zoo"); ("list", "exp2") ]
let schemes = [ "debra+"; "vbr"; "hyaline" ]

(* Sim cells are exact and gated; domains cells' wall-clock throughput
   ([wall_mops], from ~0.03 s runs) and op counts vary run to run and are
   informational. *)
let table =
  let m = Row.metric in
  {
    Row.key = [ "kind"; "structure"; "scheme"; "cell" ];
    metrics =
      [
        ("ops", m ~exact:false "ops");
        ("virtual_time", m "cycles");
        ("limbo", m "records");
        ("cycles_per_op", m ~better:`Lower "cycles/op");
        ("mops", m ~better:`Higher "Mops/s");
        ("wall_seconds", m ~exact:false "s");
        ("wall_mops", m ~exact:false "Mops/s");
      ];
  }

let sim_row ~structure ~scheme (o : Workload.Trial.outcome) =
  let open Telemetry.Json in
  [
    ("kind", String "sweep");
    ("structure", String structure);
    ("scheme", String scheme);
    ("cell", String "sim");
    ("ops", Int o.Workload.Trial.ops);
    ("virtual_time", Int o.Workload.Trial.virtual_time);
    ("limbo", Int o.Workload.Trial.limbo);
    ("cycles_per_op", Float (Experiments.cycles_per_op o));
    ("mops", Float o.Workload.Trial.mops);
  ]

let domains_row ~structure ~scheme (o : Workload.Trial.outcome) =
  let open Telemetry.Json in
  [
    ("kind", String "sweep");
    ("structure", String structure);
    ("scheme", String scheme);
    ("cell", String "domains");
    ("ops", Int o.Workload.Trial.ops);
    ("wall_seconds", Float o.Workload.Trial.wall_seconds);
    ("wall_mops", Float o.Workload.Trial.mops);
  ]

let run ~scale =
  let n = 4 and range = scale.Experiments.small_range in
  Printf.printf
    "\n\
     ===== sweep: VBR / Hyaline vs DEBRA+ =====\n\
     %d processes, keys [1,%d], 50i-50d; sim cells gated, domains cells \
     informational.\n"
    n range;
  let rows = ref [] in
  let cell ~backend ~structure ~variant ~scheme =
    match Workload.Schemes.find_runner ~ds:structure ~variant ~scheme with
    | None ->
        Printf.eprintf "sweep: no runner for %s/%s %s\n" structure variant
          scheme;
        exit 2
    | Some r ->
        let o =
          r.Workload.Schemes.run
            {
              Workload.Trial.default with
              backend;
              duration = scale.Experiments.duration;
              n;
              range;
            }
        in
        let json, result =
          match backend with
          | `Sim ->
              ( sim_row ~structure ~scheme o,
                Printf.sprintf "%s  (%.0f cycles/op)"
                  (Workload.Report.fmt_mops o.Workload.Trial.mops)
                  (Experiments.cycles_per_op o) )
          | `Domains ->
              ( domains_row ~structure ~scheme o,
                Printf.sprintf "%s wall"
                  (Workload.Report.fmt_mops o.Workload.Trial.mops) )
        in
        Row.add table json;
        rows :=
          [
            structure;
            scheme;
            (match backend with `Sim -> "sim" | `Domains -> "domains");
            string_of_int o.Workload.Trial.ops;
            result;
          ]
          :: !rows
  in
  List.iter
    (fun (structure, variant) ->
      List.iter
        (fun scheme -> cell ~backend:`Sim ~structure ~variant ~scheme)
        schemes)
    structures;
  (* Real parallelism where the host has it; a single-core host still
     runs the cells (timeslicing domains), it just measures less. *)
  List.iter
    (fun (structure, variant) ->
      List.iter
        (fun scheme -> cell ~backend:`Domains ~structure ~variant ~scheme)
        schemes)
    structures;
  Workload.Report.table ~title:"sweep: VBR / Hyaline vs DEBRA+"
    ~header:[ "structure"; "scheme"; "cell"; "ops"; "throughput" ]
    ~rows:(List.rev !rows)
