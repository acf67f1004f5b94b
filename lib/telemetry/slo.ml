(** Tail-latency SLO verdicts over latency histograms.

    A {!budget} names per-percentile latency ceilings (in the histogram's
    unit, nanoseconds everywhere in this repo); {!judge} compares one
    histogram against it and returns a pass/fail {!verdict} listing every
    breached percentile.  Scoping (per shard, per op kind, per scheme) is
    the caller's business — a verdict just carries the scope label it was
    judged under.

    Budgets parse from a compact spec string so they can ride on a CLI
    flag: ["p99=20000,p999=100000"] caps p99 at 20µs and p999 at 100µs;
    omitted percentiles are unconstrained. *)

type budget = { p50_ns : int option; p99_ns : int option; p999_ns : int option }

let no_budget = { p50_ns = None; p99_ns = None; p999_ns = None }

let budget_of_spec spec =
  if String.trim spec = "" then no_budget
  else
    List.fold_left
      (fun b part ->
        match String.index_opt part '=' with
        | None ->
            invalid_arg
              (Printf.sprintf "Slo.budget_of_spec: %S (want p99=NS,...)" part)
        | Some i -> (
            let key = String.trim (String.sub part 0 i) in
            let v =
              match
                int_of_string_opt
                  (String.trim
                     (String.sub part (i + 1) (String.length part - i - 1)))
              with
              | Some v when v >= 0 -> v
              | _ ->
                  invalid_arg
                    (Printf.sprintf
                       "Slo.budget_of_spec: bad value in %S (want a \
                        non-negative ns integer)"
                       part)
            in
            match key with
            | "p50" -> { b with p50_ns = Some v }
            | "p99" -> { b with p99_ns = Some v }
            | "p999" -> { b with p999_ns = Some v }
            | _ ->
                invalid_arg
                  (Printf.sprintf
                     "Slo.budget_of_spec: unknown percentile %S (want \
                      p50/p99/p999)"
                     key)))
      no_budget
      (String.split_on_char ',' spec)

type breach = { percentile : string; observed_ns : int; budget_ns : int }

(** A percentile whose rank falls beyond the served population when judging
    against demand: an unserved request has no finite latency, so the
    quantile is "infinite" and any budget on it is breached. *)
let unserved_ns = max_int

type verdict = {
  scope : string;  (** e.g. ["shard3"] or ["all"] *)
  kind : string;  (** operation kind, e.g. ["get"] *)
  count : int;  (** requests actually served (histogram population) *)
  demand : int;  (** requests addressed to this scope ([= count] when every
                     request was served; see {!judge_demand}) *)
  p50 : int;
  p99 : int;
  p999 : int;
  breaches : breach list;
  pass : bool;  (** no percentile over budget (vacuously true when empty) *)
}

(* Quantile over the demand population: the [demand - count] unserved
   requests sort above every served latency (they never completed), so
   rank q*demand lands either inside the histogram — at the rescaled
   quantile — or in the unserved tail, where the latency is infinite.
   This is the open-loop accounting fix: a scheme cannot improve its
   percentiles by shedding or timing requests out. *)
let demand_quantile h ~count ~demand q =
  if count <= 0 then if demand > 0 then unserved_ns else 0
  else if demand <= count then Histogram.quantile h q
  else
    let rank = q *. float_of_int demand in
    if rank > float_of_int count then unserved_ns
    else Histogram.quantile h (rank /. float_of_int count)

let judge_demand budget ~scope ~kind ~demand h =
  let count = Histogram.count h in
  let demand = max demand count in
  let q p = demand_quantile h ~count ~demand p in
  let p50 = q 0.50 and p99 = q 0.99 and p999 = q 0.999 in
  let check name observed = function
    | Some cap when demand > 0 && observed > cap ->
        [ { percentile = name; observed_ns = observed; budget_ns = cap } ]
    | _ -> []
  in
  let breaches =
    check "p50" p50 budget.p50_ns
    @ check "p99" p99 budget.p99_ns
    @ check "p999" p999 budget.p999_ns
  in
  { scope; kind; count; demand; p50; p99; p999; breaches; pass = breaches = [] }

let judge budget ~scope ~kind h =
  judge_demand budget ~scope ~kind ~demand:(Histogram.count h) h

let all_pass vs = List.for_all (fun v -> v.pass) vs
