(* The repository benchmark.  See benchmark/README.md.

     dune exec benchmark/main.exe -- [--workload NAME] [--seed N]
       [--seconds S] [--trace 0|1] [--out DIR]
     dune exec benchmark/main.exe -- repeat-check [--workload NAME] ...

   Without --trace it runs the untraced repetitions (end-to-end metrics),
   then a separate traced run (per-layer metrics).  The last line of
   standard output is one JSON object: correct, attempted, failed and the
   metrics by name with their units. *)

open Benchkit

let workload = ref "all"
let seed = ref 1
let seconds = ref 30
let trace = ref (-1)
let out = ref (Filename.concat "benchmark" "out")
let repeat_check = ref false

let usage =
  "main.exe [repeat-check] [--workload NAME|all] [--seed N] [--seconds S] \
   [--trace 0|1] [--out DIR]"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("benchmark: " ^ s);
      exit 2)
    fmt

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload to run (default: all)");
      ("--seed", Arg.Set_int seed, " input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, " measured seconds per workload (default 30)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics only; 1: per-layer only");
      ("--out", Arg.Set_string out, " directory for the report and trace files");
    ]
    (function
      | "repeat-check" -> repeat_check := true
      | a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds < 1 then fail "--seconds must be at least 1";
  if not (List.mem !trace [ -1; 0; 1 ]) then fail "--trace must be 0 or 1"

(* Host guard: the domains workloads need two cores for their two workers;
   fewer would measure the OS scheduler. *)
let () =
  if Domain.recommended_domain_count () < 2 then
    fail "needs at least 2 cores (Domain.recommended_domain_count () = %d)"
      (Domain.recommended_domain_count ())

let selected =
  if !workload = "all" then Workloads.all
  else
    match Workloads.find !workload with
    | Some w -> [ w ]
    | None ->
        fail "unknown workload %S (expected all|%s)" !workload
          (String.concat "|" (List.map (fun w -> w.Workloads.name) Workloads.all))

let budget = float_of_int !seconds

(* The commit is read from .git when there is one; a source tarball has
   none. *)
let commit () =
  let read f = In_channel.with_open_text f In_channel.input_all |> String.trim in
  match read (Filename.concat ".git" "HEAD") with
  | exception Sys_error _ -> "unknown"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | sha -> sha
      | exception Sys_error _ -> r)
  | sha -> sha

let provenance () =
  Telemetry.Json.Obj
    [
      ("nproc", Telemetry.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Telemetry.Json.String Sys.ocaml_version);
      ("commit", Telemetry.Json.String (commit ()));
      ("seed", Telemetry.Json.Int !seed);
      ("seconds", Telemetry.Json.Int !seconds);
      ( "workloads",
        Telemetry.Json.List
          (List.map
             (fun (w : Workloads.t) ->
               Telemetry.Json.Obj
                 [
                   ("name", Telemetry.Json.String w.name);
                   ("backend", Telemetry.Json.String w.backend);
                   ("min_reps", Telemetry.Json.Int w.min_reps);
                   ( "rep_seconds",
                     match w.window with
                     | Some s -> Telemetry.Json.Float s
                     | None -> Telemetry.Json.String "fixed size" );
                 ])
             selected) );
    ]

let write_file name json =
  (try Sys.mkdir !out 0o755 with Sys_error _ -> ());
  let path = Filename.concat !out name in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Telemetry.Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

let metric_json value unit_ =
  Telemetry.Json.Obj
    [ ("value", Telemetry.Json.Float value); ("unit", Telemetry.Json.String unit_) ]

let result_line ~correct ~attempted ~failed metrics =
  print_endline
    (Telemetry.Json.to_string
       (Telemetry.Json.Obj
          [
            ("correct", Telemetry.Json.Bool correct);
            ("attempted", Telemetry.Json.Int attempted);
            ("failed", Telemetry.Json.Int failed);
            ( "metrics",
              Telemetry.Json.Obj
                (List.map (fun (name, v, u) -> (name, metric_json v u)) metrics) );
          ]))

let () =
  Printf.printf "benchmark provenance: %s\n%!"
    (Telemetry.Json.to_string (provenance ()));
  if !repeat_check then begin
    let ok = Workloads.repeat_check selected ~seed:!seed ~budget in
    exit (if ok then 0 else 1)
  end;
  let untraced = !trace <> 1 and traced = !trace <> 0 in
  let prefix (w : Workloads.t) name =
    if List.length selected = 1 then name else w.name ^ "/" ^ name
  in
  let metrics = ref [] and reports = ref [] in
  let problems = ref [] and attempted = ref 0 and failed = ref 0 in
  let account (w : Workloads.t) reps =
    List.iter
      (fun (r : Metrics.rep) ->
        attempted := !attempted + r.attempted;
        failed := !failed + r.failed;
        List.iter (fun p -> problems := (w.name ^ ": " ^ p) :: !problems) r.problems)
      reps
  in
  if untraced then
    List.iter
      (fun (w, reps) ->
        account w reps;
        List.iter (fun p -> problems := p :: !problems) (Workloads.cross_check w reps);
        let rows = Workloads.end_to_end reps in
        Workloads.print_rows w rows;
        reports := (w.name ^ ".e2e", Workloads.rows_json rows) :: !reports;
        metrics :=
          !metrics
          @ List.map
              (fun (d, (s : Metrics.summary)) -> (prefix w d.Metrics.name, s.med, d.unit_))
              rows)
      (Workloads.run selected ~seed:!seed ~budget);
  if traced then
    List.iter
      (fun (w, pairs) ->
        account w (List.concat_map (fun (a, b) -> [ a; b ]) pairs);
        let rows = Workloads.per_layer pairs in
        Workloads.print_layer_rows w rows;
        reports := (w.name ^ ".layers", Workloads.layer_rows_json rows) :: !reports;
        let _, last = List.nth pairs (List.length pairs - 1) in
        write_file (w.name ^ ".trace.json") (Span.trace_json last.Metrics.spans);
        metrics :=
          !metrics
          @ List.map (fun (d, v) -> (prefix w d.Metrics.name, v, d.Metrics.unit_)) rows)
      (Workloads.run_pairs selected ~seed:!seed ~budget);
  let problems = List.rev !problems in
  List.iter (fun p -> Printf.printf "CHECK FAILED %s\n" p) problems;
  write_file
    (Printf.sprintf "report-%s-seed%d.json" !workload !seed)
    (Telemetry.Json.Obj
       (("provenance", provenance ())
       :: ("problems", Telemetry.Json.List (List.map (fun p -> Telemetry.Json.String p) problems))
       :: List.rev !reports));
  let correct = problems = [] in
  result_line ~correct ~attempted:!attempted ~failed:!failed !metrics;
  exit (if correct then 0 else 1)
