(** Tail-latency SLO verdicts: compare a latency histogram against
    per-percentile budgets and report pass/fail with the breached
    percentiles (see the implementation header). *)

type budget = { p50_ns : int option; p99_ns : int option; p999_ns : int option }

val no_budget : budget
(** Every percentile unconstrained: every verdict passes. *)

val budget_of_spec : string -> budget
(** Parse ["p99=20000,p999=100000"]-style specs (values in ns; empty string
    = {!no_budget}).  Raises [Invalid_argument] on malformed input. *)

type breach = { percentile : string; observed_ns : int; budget_ns : int }

val unserved_ns : int
(** The "latency" of a percentile rank that falls in the unserved tail
    when judging against demand ([max_int]): unserved requests never
    completed, so any budget on that percentile is breached. *)

type verdict = {
  scope : string;
  kind : string;
  count : int;  (** requests served (histogram population) *)
  demand : int;  (** requests addressed to the scope; [> count] when some
                     were shed, rejected or cancelled unserved *)
  p50 : int;
  p99 : int;
  p999 : int;
  breaches : breach list;
  pass : bool;
}

val judge : budget -> scope:string -> kind:string -> Histogram.t -> verdict
(** Judge one histogram.  An empty histogram passes vacuously. *)

val judge_demand :
  budget -> scope:string -> kind:string -> demand:int -> Histogram.t -> verdict
(** Judge against the full demand population: the [demand - count]
    requests missing from the histogram (shed or failed) sort as
    infinitely late, so a percentile whose rank
    falls among them reads {!unserved_ns} and breaches any budget.  A
    [demand] below the histogram count is clamped up to it. *)

val all_pass : verdict list -> bool
