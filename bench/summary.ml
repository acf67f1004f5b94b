(** Paper-vs-measured summary of the scalar claims in §7 / §8 (E7 in
    DESIGN.md).  Every claim is a function of the figure trials that exp1,
    exp2 and memfig recorded in this process ({!Experiments.recorded}), so
    summary runs no trial of its own: bench/main.ml schedules those three
    experiments before it. *)

(* The experiments whose outcomes the claims read. *)
let inputs = [ "exp1"; "exp2"; "memfig" ]

let avg l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l))

(* Overhead of [x] relative to [base]: positive = slower. *)
let overhead ~base x = if base = 0. then 0. else (base -. x) /. base *. 100.

(* Speedup of [x] over [y]: positive = x faster. *)
let speedup ~over x = if over = 0. then 0. else (x -. over) /. over *. 100.

(* One row per claim: the paper's value as printed and as a number, and
   the measured value, in percent or (neutralizations) as a count. *)
let table () =
  let m = Row.metric ~exact:(!Experiments.backend = `Sim) in
  {
    Row.key = [ "claim" ];
    metrics =
      [
        ("paper", Row.metric "text");
        ("paper_pct", Row.metric "%");
        ("measured_pct", m "%");
        ("paper_count", Row.metric "count");
        ("measured_count", m "count");
        ("debra_bytes", m "bytes");
        ("debra_plus_bytes", m "bytes");
      ];
  }

let run ~scale =
  Printf.printf "\n===== Summary: paper-reported vs measured (§7/§8) =====\n";
  Printf.printf "(grid: BST %d and %d keys, 50i-50d and 25i-25d-50s, %s procs)\n%!"
    scale.Experiments.big_range scale.Experiments.small_range
    (String.concat "," (List.map string_of_int scale.Experiments.threads));
  let find experiment ~range ~ins ~del =
    Experiments.find_outcome { Experiments.experiment; ds = "bst"; range; ins; del }
  in
  (* The none / DEBRA / DEBRA+ / HP Mops/s of every BST cell of the
     experiment's panels. *)
  let cells experiment =
    List.concat_map
      (fun (ins, del) ->
        List.concat_map
          (fun range ->
            List.map
              (fun nprocs ->
                let mops scheme =
                  (find experiment ~range ~ins ~del ~scheme ~nprocs)
                    .Workload.Trial.mops
                in
                (mops "none", mops "debra", mops "debra+", mops "hp"))
              scale.Experiments.threads)
          [ scale.Experiments.big_range; scale.Experiments.small_range ])
      Experiments.mixes
  in
  let o_debra = List.map (fun (n, d, _, _) -> overhead ~base:n d)
  and o_dplus = List.map (fun (n, _, p, _) -> overhead ~base:n p)
  and s_debra = List.map (fun (_, d, _, h) -> speedup ~over:h d)
  and s_dplus = List.map (fun (_, _, p, h) -> speedup ~over:h p)
  and worst = List.fold_left max neg_infinity
  and best = List.fold_left min infinity in
  let e1 = cells "exp1" and e2 = cells "exp2" in
  (* Memory and neutralizations at maximum oversubscription: the memory
     figure's (Fig. 9 right) 16-process trials. *)
  let mem scheme =
    find "memfig" ~range:scale.Experiments.small_range ~ins:50 ~del:50 ~scheme
      ~nprocs:16
  in
  let debra_mem = mem "debra" and dplus_mem = mem "debra+" in
  let bytes o = o.Workload.Trial.bytes_claimed_trial in
  let mem_reduction =
    let d = float_of_int (bytes debra_mem) and p = float_of_int (bytes dplus_mem) in
    if d = 0. then 0. else (d -. p) /. d *. 100.
  in
  let open Telemetry.Json in
  let pct ?(sign = false) ?(extra = ("", [])) claim paper paper_pct v =
    ( claim,
      paper,
      Printf.sprintf (if sign then "%+.0f%%" else "%.0f%%") v ^ fst extra,
      [ ("paper_pct", Float paper_pct); ("measured_pct", Float v) ] @ snd extra )
  in
  let claims =
    [
      pct "Exp1: DEBRA overhead vs none (avg)" "12%" 12. (avg (o_debra e1));
      pct "Exp1: DEBRA overhead vs none (worst)" "22%" 22. (worst (o_debra e1));
      pct "Exp1: DEBRA+ overhead vs none (avg)" "17%" 17. (avg (o_dplus e1));
      pct "Exp1: DEBRA+ overhead vs none (worst)" "28%" 28. (worst (o_dplus e1));
      pct ~sign:true "Exp1: DEBRA vs HP (avg speedup)" "+94%" 94. (avg (s_debra e1));
      pct ~sign:true "Exp1: DEBRA+ vs HP (avg speedup)" "+83%" 83. (avg (s_dplus e1));
      pct "Exp2: DEBRA overhead vs none (avg)" "8%" 8. (avg (o_debra e2));
      pct "Exp2: DEBRA best case vs none" "-12% (faster)" (-12.) (best (o_debra e2));
      pct "Exp2: DEBRA+ overhead vs none (avg)" "10%" 10. (avg (o_dplus e2));
      pct "Exp2: DEBRA+ overhead vs none (worst)" "25%" 25. (worst (o_dplus e2));
      pct ~sign:true "Exp2: DEBRA vs HP (avg speedup)" "+80%" 80. (avg (s_debra e2));
      pct ~sign:true "Exp2: DEBRA+ vs HP (avg speedup)" "+76%" 76. (avg (s_dplus e2));
      pct "16 procs: DEBRA+ memory reduction vs DEBRA" "94%" 94. mem_reduction
        ~extra:
          ( Printf.sprintf " (%s vs %s)"
              (Workload.Report.fmt_bytes (bytes dplus_mem))
              (Workload.Report.fmt_bytes (bytes debra_mem)),
            [
              ("debra_bytes", Int (bytes debra_mem));
              ("debra_plus_bytes", Int (bytes dplus_mem));
            ] );
      ( "16 procs: neutralizations per trial",
        "~935",
        string_of_int dplus_mem.Workload.Trial.neutralized,
        [
          ("paper_count", Int 935);
          ("measured_count", Int dplus_mem.Workload.Trial.neutralized);
        ] );
    ]
  in
  List.iter
    (fun (claim, paper, _, fields) ->
      Row.add (table ()) (("claim", String claim) :: ("paper", String paper) :: fields))
    claims;
  Workload.Report.table ~title:"Scalar claims"
    ~header:[ "claim"; "paper"; "measured" ]
    ~rows:(List.map (fun (claim, paper, shown, _) -> [ claim; paper; shown ]) claims)
