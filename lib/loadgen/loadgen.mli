(** Open-loop load generation (see the implementation header for the
    plan/dispatch design and the latency-from-scheduled-arrival rule). *)

module Dist = Dist
module Arrivals = Arrivals

type op =
  | Get of int  (** key rank *)
  | Put of int
  | Delete of int
  | Scan of int * int  (** start rank, length *)

type mix = { get : int; put : int; delete : int; scan : int }
(** Operation percentages; must sum to 100. *)

val mix_of_string : string -> mix option
(** Preset mixes: [read_heavy], [session], [write_heavy], [scan_heavy]. *)

val mix_to_string : mix -> string

val op_kind : op -> string
(** ["get"], ["put"], ["delete"] or ["scan"] — telemetry kind names. *)

(** Server-side fate of one request.  The open-loop client claims and
    accounts every request; the server decides whether it was served,
    shed in brownout, or failed outright.  Only [Served] latencies
    belong in the SLO histograms; the rest are counted against demand. *)
type outcome = Served | Shed | Failed

val outcome_name : outcome -> string
(** ["served"], ["shed"], ["failed"]. *)

val outcomes : outcome list
(** All outcomes, in report order. *)

val scan_length : int

type plan = {
  arrivals : int array;  (** absolute due times, backend cycles *)
  ops : op array;
  nkeys : int;
}

val generate :
  n:int ->
  nkeys:int ->
  dist:Dist.t ->
  mix:mix ->
  arrivals:Arrivals.t ->
  clock:Exec.Clock.t ->
  seed:int ->
  plan
(** A complete deterministic request plan: same arguments, same plan. *)

val length : plan -> int

val bodies :
  plan ->
  group:Runtime.Group.t ->
  record:
    (pid:int ->
    op:op ->
    shard:int ->
    outcome:outcome ->
    start:int ->
    finish:int ->
    unit) ->
  exec_op:(Runtime.Ctx.t -> due:int -> op -> int * outcome) ->
  (unit -> unit) array
(** One worker body per process: workers claim requests with a shared
    fetch-and-add, stall until each request is due, serve it via
    [exec_op] (which receives the scheduled arrival as [due] — the
    deadline anchor — and returns the shard hit plus the request's
    {!outcome}) and [record] it with the scheduled arrival as [start]. *)
