(* Symbolic SMR protocol check: every scheme x structure cell, both
   branches of every guard/CAS within the deny budget.  Writes
   PROTOCHECK_REPORT.json next to the cwd and exits nonzero if any cell
   has a protocol violation or a crash.  Run with: dune build @protocheck *)

let () =
  let t0 = Unix.gettimeofday () in
  let cells = Protocheck.Matrix.all () in
  List.iter (fun c -> print_endline (Protocheck.Report.summary c)) cells;
  Protocheck.Report.write ~path:"PROTOCHECK_REPORT.json" cells;
  let dirty = List.filter (fun c -> not (Protocheck.Report.clean c)) cells in
  Printf.printf
    "\nprotocheck: %d cells, %d paths, %d violating cell(s) (%.1fs)\n"
    (List.length cells)
    (List.fold_left (fun a c -> a + c.Protocheck.Report.paths) 0 cells)
    (List.length dirty)
    (Unix.gettimeofday () -. t0);
  List.iter
    (fun c ->
      Printf.printf "VIOLATING CELL: %s\n" (Protocheck.Report.summary c);
      match c.Protocheck.Report.counterexample with
      | None -> ()
      | Some ce ->
          Printf.printf "  deny set: [%s]\n"
            (String.concat "; " (List.map string_of_int ce.deny));
          List.iter
            (fun { Protocheck.Engine.violation; trace } ->
              Format.printf "  %a@." Sanitizer.pp_violation violation;
              List.iter (fun line -> Printf.printf "    %s\n" line) trace)
            ce.violations)
    dirty;
  if dirty <> [] then exit 1
