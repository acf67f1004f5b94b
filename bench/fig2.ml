(** Figure 2 of the paper: the summary table of reclamation schemes.  The
    rows are properties.  For a scheme this repository implements, the
    fault-tolerance column is its declared robustness ({!Reclaim.Registry});
    the rest, and every column of the schemes the paper only surveys, is
    static data taken from its table. *)

(* Implemented (by registry name), or only surveyed, with the paper's
   fault-tolerance entry. *)
type source = Scheme of string | Survey of { fault_tolerant : bool }

type scheme_row = {
  id : string;
  per_record : bool;  (* code modifications per accessed record *)
  per_op : bool;  (* per operation *)
  per_retire : bool;  (* per retired record *)
  other_mods : string;
  timing_assumptions : string;  (* "", "progress", "correctness" *)
  termination : string;
  retired_to_retired : bool;
  source : source;
}

let schemes =
  [
    {
      id = "RC";
      per_record = true;
      per_op = false;
      per_retire = true;
      other_mods = "break pointer cycles";
      timing_assumptions = "";
      termination = "lock-free";
      retired_to_retired = true;
      source = Scheme "rc";
    };
    {
      id = "HP";
      per_record = true;
      per_op = false;
      per_retire = true;
      other_mods = "recovery when protect fails";
      timing_assumptions = "";
      termination = "wait-free";
      retired_to_retired = false;
      source = Scheme "hp";
    };
    {
      id = "B&C";
      per_record = true;
      per_op = false;
      per_retire = true;
      other_mods = "recovery code (a)+(b)";
      timing_assumptions = "";
      termination = "lock-free";
      retired_to_retired = true;
      source = Survey { fault_tolerant = true };
    };
    {
      id = "TS";
      per_record = false;
      per_op = false;
      per_retire = true;
      other_mods = "";
      timing_assumptions = "progress";
      termination = "blocking";
      retired_to_retired = false;
      source = Scheme "threadscan";
    };
    {
      id = "ST";
      per_record = true;
      per_op = true;
      per_retire = true;
      other_mods = "transaction checkpoints every few lines";
      timing_assumptions = "";
      termination = "lock-free";
      retired_to_retired = false;
      source = Scheme "stacktrack";
    };
    {
      id = "EBR";
      per_record = false;
      per_op = true;
      per_retire = true;
      other_mods = "";
      timing_assumptions = "";
      termination = "lock-free";
      retired_to_retired = true;
      source = Scheme "ebr";
    };
    {
      id = "QSBR";
      per_record = false;
      per_op = false;
      per_retire = true;
      other_mods = "identify quiescent points manually";
      timing_assumptions = "";
      termination = "lock-free";
      retired_to_retired = true;
      source = Scheme "qsbr";
    };
    {
      id = "DTA";
      per_record = true;
      per_op = false;
      per_retire = true;
      other_mods = "integrate with list synchronization (lists only)";
      timing_assumptions = "";
      termination = "lock-free";
      retired_to_retired = false;
      source = Survey { fault_tolerant = true };
    };
    {
      id = "QS";
      per_record = true;
      per_op = true;
      per_retire = true;
      other_mods = "rooster processes";
      timing_assumptions = "correctness";
      termination = "lock-free (rooster)";
      retired_to_retired = false;
      source = Survey { fault_tolerant = false };
    };
    {
      id = "OA";
      per_record = true;
      per_op = true;
      per_retire = true;
      other_mods = "normalized form; instrument every read/write/CAS";
      timing_assumptions = "";
      termination = "lock-free";
      retired_to_retired = true;
      source = Survey { fault_tolerant = true };
    };
    {
      id = "DEBRA";
      per_record = false;
      per_op = true;
      per_retire = true;
      other_mods = "";
      timing_assumptions = "";
      termination = "wait-free";
      retired_to_retired = true;
      source = Scheme "debra";
    };
    {
      id = "DEBRA+";
      per_record = false;
      per_op = true;
      per_retire = true;
      other_mods = "crash recovery code (trivial for many structures)";
      timing_assumptions = "";
      termination = "wait-free (signals)";
      retired_to_retired = true;
      source = Scheme "debra+";
    };
    (* Post-paper schemes implemented behind the same Record Manager
       face, for contrast with the 2015 survey rows above. *)
    {
      id = "VBR";
      per_record = true;
      per_op = false;
      per_retire = true;
      other_mods = "version re-validation on every deref; type-stable arena";
      timing_assumptions = "";
      termination = "lock-free";
      retired_to_retired = false;
      source = Scheme "vbr";
    };
    {
      id = "Hyaline";
      per_record = false;
      per_op = true;
      per_retire = true;
      other_mods = "";
      timing_assumptions = "";
      termination = "lock-free";
      retired_to_retired = true;
      source = Scheme "hyaline";
    };
  ]

let yn b = if b then "yes" else ""

let print () =
  let header =
    [
      "scheme";
      "per-record";
      "per-op";
      "per-retire";
      "other changes";
      "timing";
      "fault-tol";
      "termination";
      "retired->retired";
      "in repo";
    ]
  in
  let rows =
    List.map
      (fun s ->
        [
          s.id;
          yn s.per_record;
          yn s.per_op;
          yn s.per_retire;
          s.other_mods;
          s.timing_assumptions;
          yn
            (match s.source with
            | Scheme name ->
                Reclaim.Intf.Robustness.bounded
                  (Reclaim.Registry.find name).robustness
            | Survey { fault_tolerant } -> fault_tolerant);
          s.termination;
          yn s.retired_to_retired;
          yn (match s.source with Scheme _ -> true | Survey _ -> false);
        ])
      schemes
  in
  Workload.Report.table
    ~title:"Figure 2: summary of memory reclamation schemes" ~header ~rows
