(** Paper-vs-measured summary of the scalar claims in §7 / §8 (E7 in
    DESIGN.md).  Runs a focused grid and prints each claim next to what this
    reproduction measures. *)

open Common

type agg = { mutable sum : float; mutable count : int; mutable worst : float; mutable best : float }

let agg () = { sum = 0.; count = 0; worst = neg_infinity; best = infinity }

let add a v =
  a.sum <- a.sum +. v;
  a.count <- a.count + 1;
  if v > a.worst then a.worst <- v;
  if v < a.best then a.best <- v

let avg a = if a.count = 0 then 0. else a.sum /. float_of_int a.count

(* Overhead of [x] relative to [base]: positive = slower. *)
let overhead ~base x = if base = 0. then 0. else (base -. x) /. base *. 100.

(* Speedup of [x] over [y]: positive = x faster. *)
let speedup ~over x = if over = 0. then 0. else (x -. over) /. over *. 100.

let run ~scale =
  Printf.printf "\n===== Summary: paper-reported vs measured (§7/§8) =====\n";
  Printf.printf "(grid: BST %d and %d keys, 50i-50d and 25i-25d-50s, %s procs)\n%!"
    scale.Experiments.big_range scale.Experiments.small_range
    (String.concat "," (List.map string_of_int scale.Experiments.threads));
  let grid runners =
    (* (scheme -> outcome) per cell *)
    List.concat_map
      (fun (ins, del) ->
        List.concat_map
          (fun range ->
            List.map
              (fun n ->
                let cfg =
                  Experiments.base_cfg ~scale ~range ~ins ~del n
                in
                List.map (fun r -> (r.rname, r.run cfg)) runners)
              scale.Experiments.threads)
          [ scale.Experiments.big_range; scale.Experiments.small_range ])
      [ (50, 50); (25, 25) ]
  in
  let mops cell name = (List.assoc name cell).Workload.Trial.mops in
  let summarize cells =
    let o_debra = agg ()
    and o_debra_plus = agg ()
    and s_debra_hp = agg ()
    and s_dplus_hp = agg () in
    List.iter
      (fun cell ->
        let none = mops cell "none"
        and debra = mops cell "debra"
        and dplus = mops cell "debra+"
        and hp = mops cell "hp" in
        add o_debra (overhead ~base:none debra);
        add o_debra_plus (overhead ~base:none dplus);
        add s_debra_hp (speedup ~over:hp debra);
        add s_dplus_hp (speedup ~over:hp dplus))
      cells;
    (o_debra, o_debra_plus, s_debra_hp, s_dplus_hp)
  in
  let e1 = summarize (grid (panel ~ds:"bst" "exp1")) in
  let e2 = summarize (grid (panel ~ds:"bst" "exp2")) in
  (* Memory/neutralization at maximum oversubscription — same long-stall
     machine and trial length as the memory figure (Fig. 9 right). *)
  let mem_cfg =
    let machine =
      { Machine.Config.intel_i7_4770 with Machine.Config.quantum = 2_500_000 }
    in
    let scale =
      { scale with Experiments.duration = max scale.Experiments.duration 10_000_000 }
    in
    Experiments.base_cfg ~machine ~scale ~range:scale.Experiments.small_range
      ~ins:50 ~del:50 16
  in
  let debra_mem = (runner ~ds:"bst" "debra").run mem_cfg in
  let dplus_mem = (runner ~ds:"bst" "debra+").run mem_cfg in
  let mem_reduction =
    let d = float_of_int debra_mem.Workload.Trial.bytes_claimed_trial in
    let p = float_of_int dplus_mem.Workload.Trial.bytes_claimed_trial in
    if d = 0. then 0. else (d -. p) /. d *. 100.
  in
  let o1d, o1p, s1dh, s1ph = e1 in
  let o2d, o2p, s2dh, s2ph = e2 in
  let rows =
    [
      [ "Exp1: DEBRA overhead vs none (avg)"; "12%"; Printf.sprintf "%.0f%%" (avg o1d) ];
      [ "Exp1: DEBRA overhead vs none (worst)"; "22%"; Printf.sprintf "%.0f%%" o1d.worst ];
      [ "Exp1: DEBRA+ overhead vs none (avg)"; "17%"; Printf.sprintf "%.0f%%" (avg o1p) ];
      [ "Exp1: DEBRA+ overhead vs none (worst)"; "28%"; Printf.sprintf "%.0f%%" o1p.worst ];
      [ "Exp1: DEBRA vs HP (avg speedup)"; "+94%"; Printf.sprintf "%+.0f%%" (avg s1dh) ];
      [ "Exp1: DEBRA+ vs HP (avg speedup)"; "+83%"; Printf.sprintf "%+.0f%%" (avg s1ph) ];
      [ "Exp2: DEBRA overhead vs none (avg)"; "8%"; Printf.sprintf "%.0f%%" (avg o2d) ];
      [ "Exp2: DEBRA best case vs none"; "-12% (faster)"; Printf.sprintf "%.0f%%" o2d.best ];
      [ "Exp2: DEBRA+ overhead vs none (avg)"; "10%"; Printf.sprintf "%.0f%%" (avg o2p) ];
      [ "Exp2: DEBRA+ overhead vs none (worst)"; "25%"; Printf.sprintf "%.0f%%" o2p.worst ];
      [ "Exp2: DEBRA vs HP (avg speedup)"; "+80%"; Printf.sprintf "%+.0f%%" (avg s2dh) ];
      [ "Exp2: DEBRA+ vs HP (avg speedup)"; "+76%"; Printf.sprintf "%+.0f%%" (avg s2ph) ];
      [
        "16 procs: DEBRA+ memory reduction vs DEBRA";
        "94%";
        Printf.sprintf "%.0f%% (%s vs %s)" mem_reduction
          (Workload.Report.fmt_bytes
             dplus_mem.Workload.Trial.bytes_claimed_trial)
          (Workload.Report.fmt_bytes
             debra_mem.Workload.Trial.bytes_claimed_trial);
      ];
      [
        "16 procs: neutralizations per trial";
        "~935";
        string_of_int dplus_mem.Workload.Trial.neutralized;
      ];
    ]
  in
  Workload.Report.table ~title:"Scalar claims"
    ~header:[ "claim"; "paper"; "measured" ]
    ~rows
