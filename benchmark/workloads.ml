(** The four workloads, the repetition scheduler, and the report.

    Every workload repeats until the run's budget of seconds is spent, and
    at least [min_reps] times; the report gives medians over the
    repetitions.  Repetitions of the selected workloads are interleaved
    round-robin, so a slow phase of the host lands on every workload
    rather than on one. *)

type t = {
  name : string;
  backend : string;
  min_reps : int;
  window : float option;
      (** measured seconds of one repetition; [None] for fixed-size
          repetitions *)
  run : traced:bool -> seed:int -> seconds:float -> Metrics.rep;
}

let all =
  [
    {
      name = "bst-update";
      backend = "domains";
      min_reps = 3;
      window = Some 1.;
      run = Sets.bst;
    };
    {
      name = "list-read";
      backend = "domains";
      min_reps = 3;
      window = Some 1.;
      run = Sets.list;
    };
    {
      name = "kv-straggler";
      backend = "sim";
      min_reps = 3;
      window = None;
      run = (fun ~traced ~seed ~seconds:_ -> Kv_straggler.rep ~traced ~seed);
    };
    {
      name = "explore-b2";
      backend = "serial";
      min_reps = 2;
      window = None;
      run = (fun ~traced ~seed:_ ~seconds:_ -> Explore_b2.rep ~traced);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Each repetition starts from a collected heap, so the garbage of the
   previous one (arenas of hundreds of thousands of records) is not swept
   on its time. *)
let rep w ~traced ~seed =
  Gc.full_major ();
  w.run ~traced ~seed ~seconds:(Option.value w.window ~default:0.)

(* Round-robin over the workloads until each has spent [budget] seconds
   and run [units] steps.  A step is one repetition, or a pair.  Every
   workload first runs one repetition that is not reported: the first in
   a process runs on cold caches and a heap still growing, which later
   ones do not. *)
let schedule ws ~seed ~budget ~units ~step =
  List.iter (fun w -> ignore (rep w ~traced:false ~seed)) ws;
  let st = List.map (fun w -> (w, ref [], ref 0.)) ws in
  let finished (w, res, spent) = List.length !res >= units w && !spent >= budget in
  while not (List.for_all finished st) do
    List.iter
      (fun ((w, res, spent) as s) ->
        if not (finished s) then begin
          let t0 = Metrics.now_ns () in
          res := step w :: !res;
          spent := !spent +. Metrics.seconds_since t0
        end)
      st
  done;
  List.map (fun (w, res, _) -> (w, List.rev !res)) st

(** Untraced repetitions of every workload. *)
let run ws ~seed ~budget =
  schedule ws ~seed ~budget ~units:(fun w -> w.min_reps) ~step:(rep ~traced:false ~seed)

(** (untraced, traced) pairs sharing the budget: per-layer metrics come
    from the traced halves, tracing overhead from the comparison. *)
let run_pairs ws ~seed ~budget =
  schedule ws ~seed ~budget
    ~units:(fun w -> max 1 (w.min_reps / 2))
    ~step:(fun w ->
      let a = rep w ~traced:false ~seed in
      (a, rep w ~traced:true ~seed))

let end_to_end (reps : Metrics.rep list) =
  List.map
    (fun (d : Metrics.def) ->
      (d, Metrics.summarize (List.map (fun r -> Metrics.e2e_value r d.name) reps)))
    Metrics.end_to_end

let layer_value name (r : Metrics.rep) =
  Option.value ~default:0. (List.assoc_opt name r.layers)

(* Positions at which two deterministic records differ (0: identical). *)
let virtual_delta (a : Metrics.rep) (b : Metrics.rep) =
  let la = Array.length a.virtual_values and lb = Array.length b.virtual_values in
  let d = ref (abs (la - lb)) in
  for i = 0 to min la lb - 1 do
    if a.virtual_values.(i) <> b.virtual_values.(i) then incr d
  done;
  !d

let per_layer pairs =
  let untraced = List.map fst pairs and traced = List.map snd pairs in
  let med f reps = Metrics.median (List.map f reps) in
  List.map
    (fun (d : Metrics.def) ->
      let v =
        match d.name with
        | "trace.overhead_pct" ->
            ((med Metrics.throughput untraced /. med Metrics.throughput traced) -. 1.)
            *. 100.
        | "trace.virtual_delta" ->
            float_of_int
              (List.fold_left (fun acc (a, b) -> max acc (virtual_delta a b)) 0 pairs)
        | name when List.mem name Metrics.untraced_layers ->
            med (layer_value name) untraced
        | name -> med (layer_value name) traced
      in
      (d, v))
    Metrics.per_layer

(** Checks across repetitions: a deterministic workload must decide the
    same virtual outcome every time it runs the same inputs. *)
let cross_check w (reps : Metrics.rep list) =
  match reps with
  | first :: rest
    when Array.length first.virtual_values > 0
         && List.exists (fun r -> virtual_delta first r <> 0) rest ->
      [ Printf.sprintf "%s: repetitions of the same seed diverged" w.name ]
  | _ -> []

let print_rows w rows =
  List.iter
    (fun ((d : Metrics.def), (s : Metrics.summary)) ->
      Printf.printf "%-13s %-16s %14.6g %-7s (q1 %.6g, q3 %.6g, n=%d)\n" w.name
        d.name s.med d.unit_ s.q1 s.q3 s.n)
    rows;
  flush stdout

let print_layer_rows w rows =
  List.iter
    (fun ((d : Metrics.def), v) ->
      Printf.printf "%-13s %-30s %14.6g %s\n" w.name d.name v d.unit_)
    rows;
  flush stdout

let rows_json rows =
  Telemetry.Json.Obj
    (List.map
       (fun ((d : Metrics.def), (s : Metrics.summary)) ->
         ( d.name,
           Telemetry.Json.Obj
             [
               ("median", Telemetry.Json.Float s.med);
               ("q1", Telemetry.Json.Float s.q1);
               ("q3", Telemetry.Json.Float s.q3);
               ("n", Telemetry.Json.Int s.n);
               ("unit", Telemetry.Json.String d.unit_);
             ] ))
       rows)

let layer_rows_json rows =
  Telemetry.Json.Obj
    (List.map (fun ((d : Metrics.def), v) -> (d.name, Telemetry.Json.Float v)) rows)

(** Two interleaved sets of the same code: per metric and workload, each
    set's median and quartiles, and whether the second stays within the
    metric's bound of the first.  A metric whose spread within a set
    exceeds its bound cannot be judged: "unresolved".  Returns false on a
    disagreement or a failed check. *)
let repeat_check ws ~seed ~budget =
  let results =
    schedule ws ~seed ~budget:(2. *. budget)
      ~units:(fun w -> w.min_reps)
      ~step:(fun w ->
        let a = rep w ~traced:false ~seed in
        (a, rep w ~traced:false ~seed))
  in
  let ok = ref true in
  Printf.printf "%-13s %-16s %12s %12s %12s %12s %12s %12s  %s\n" "workload"
    "metric" "A median" "A q1" "A q3" "B median" "B q1" "B q3" "verdict";
  List.iter
    (fun (w, pairs) ->
      let a = List.map fst pairs and b = List.map snd pairs in
      List.iter
        (fun r ->
          if r.Metrics.problems <> [] then begin
            ok := false;
            List.iter (Printf.printf "CHECK FAILED %s: %s\n" w.name) r.Metrics.problems
          end)
        (a @ b);
      List.iter2
        (fun ((d : Metrics.def), sa) (_, sb) ->
          let verdict =
            if Metrics.spread sa > d.bound || Metrics.spread sb > d.bound then
              "unresolved"
            else if Metrics.worsening d ~a:sa.Metrics.med ~b:sb.Metrics.med <= d.bound
            then "agree"
            else begin
              ok := false;
              "disagree"
            end
          in
          Printf.printf "%-13s %-16s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g  %s\n"
            w.name d.name sa.med sa.q1 sa.q3 sb.med sb.q1 sb.q3 verdict)
        (end_to_end a) (end_to_end b);
      if List.exists (fun (x, y) -> virtual_delta x y <> 0) pairs then begin
        ok := false;
        Printf.printf "%-13s deterministic record: DIFFERS between the sets\n" w.name
      end
      else if List.exists (fun (x, _) -> Array.length x.Metrics.virtual_values > 0) pairs
      then Printf.printf "%-13s deterministic record: identical in both sets\n" w.name)
    results;
  flush stdout;
  !ok
