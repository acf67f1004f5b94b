(* Full exploration matrix: every reclamation scheme x every structure under
   bounded-preemption systematic exploration, every explored schedule's
   history checked against the sequential spec.

   Heavyweight (hundreds of simulator runs per cell): lives behind the
   @lincheck-matrix alias, not in tier-1.  Explores every cell and exits
   non-zero if any is rejected, printing each rejected cell's replayable
   preemption schedule. *)

module Lh = Workload.Lin_harness

let budget = try int_of_string (Sys.getenv "LINCHECK_BUDGET") with Not_found -> 2

let max_runs =
  try int_of_string (Sys.getenv "LINCHECK_MAX_RUNS") with Not_found -> 300

let () =
  let t0 = Unix.gettimeofday () in
  let failures = Lh.matrix ~budget ~max_runs in
  Printf.printf "\n%d cells, %d failures, budget=%d, max_runs=%d, %.1fs\n"
    (List.length Lh.ds_names * List.length Lh.scheme_names)
    failures budget max_runs
    (Unix.gettimeofday () -. t0);
  exit (if failures > 0 then 1 else 0)
