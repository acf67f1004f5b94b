(** Protocol-check results and the [PROTOCHECK_REPORT.json] writer. *)

type structure = List | Bst | Queue | Skiplist

let structure_name = function
  | List -> "hm_list"
  | Bst -> "efrb_bst"
  | Queue -> "ms_queue"
  | Skiplist -> "skiplist"

(** The first violating path of a cell: which decision indices the oracle
    answered adversarially, the decision log of that path, and the
    violations (each carrying its own event trace). *)
type counterexample = {
  deny : int list;
  decisions : string list;
  violations : Engine.violation list;
}

type cell_result = {
  structure : string;
  scheme : string;
  paths : int;  (** symbolic paths explored *)
  branch_points : int;  (** decision points on the all-grant path *)
  diverged : int;
      (** paths that exhausted their budget: the structure stopped making
          progress under adversarial decisions (lock-freedom loss, e.g. HP
          on the helping tree — paper §3); not a protocol violation *)
  crashed : int;  (** paths stopped by an arena generation trap *)
  violations : int;  (** protocol violations summed over all paths *)
  counterexample : counterexample option;
}

let clean c = c.violations = 0 && c.crashed = 0

module J = Telemetry.Json

let strings l = J.List (List.map (fun s -> J.String s) l)

let json_violation { Engine.violation = v; trace } =
  J.Obj
    [
      ("kind", J.String (Sanitizer.kind_name v.kind));
      ("pid", J.Int v.pid);
      ("seq", J.Int v.seq);
      ("record", J.String (Memory.Ptr.to_string v.ptr));
      ("detail", J.String v.detail);
      ("trace", strings trace);
    ]

let json_counterexample = function
  | None -> J.Null
  | Some ce ->
      J.Obj
        [
          ("deny", J.List (List.map (fun i -> J.Int i) ce.deny));
          ("decisions", strings ce.decisions);
          ("violations", J.List (List.map json_violation ce.violations));
        ]

let json_cell c =
  J.Obj
    [
      ("structure", J.String c.structure);
      ("scheme", J.String c.scheme);
      ("paths", J.Int c.paths);
      ("branch_points", J.Int c.branch_points);
      ("diverged", J.Int c.diverged);
      ("crashed", J.Int c.crashed);
      ("violations", J.Int c.violations);
      ("clean", J.Bool (clean c));
      ("counterexample", json_counterexample c.counterexample);
    ]

let write ~path cells =
  let total_paths = List.fold_left (fun a c -> a + c.paths) 0 cells in
  let dirty = List.filter (fun c -> not (clean c)) cells in
  J.to_file path
    (J.Obj
       [
         ("cells", J.Int (List.length cells));
         ("paths", J.Int total_paths);
         ("violating_cells", J.Int (List.length dirty));
         ("results", J.List (List.map json_cell cells));
       ])

let summary c =
  Printf.sprintf "%-10s x %-10s %4d paths, %3d branch points, %s%s" c.structure
    c.scheme c.paths c.branch_points
    (if clean c then "clean" else Printf.sprintf "%d VIOLATIONS" c.violations)
    (if c.diverged > 0 then
       Printf.sprintf " (%d diverged: progress lost under adversary)"
         c.diverged
     else "")
