(** Systematic schedule exploration: CHESS-style bounded-preemption DFS over
    the simulator's [`Systematic] policy, with sleep-set pruning.

    One {e schedule} is the sequence of scheduling choices of a run.  The
    explorer's default rule is run-to-block with a fairness quantum; a
    {e preemption} is any deviation from that rule.  Schedules are
    enumerated depth-first with at most [budget] preemptions each, so a
    schedule is fully described by its (scheduler step, core) preemption
    pairs — the replayable counterexample printed on rejection.

    Two prunings keep the search inside the interesting subspace:
    conflict-driven branching (a preemption is only scheduled at accesses
    to the same cache line, DPOR-flavoured) and classic sleep sets.  See
    the implementation header for the full argument. *)

type stats = {
  runs : int;  (** schedules executed *)
  truncated : bool;  (** hit [max_runs]: coverage is partial *)
  branch_points : int;  (** choice points that offered an alternative *)
}

type 'a verdict =
  | Pass of stats
  | Fail of {
      stats : stats;
      schedule : (int * int) list;
          (** (step, core) preemptions reproducing the failure *)
      reason : string;
      witness : 'a option;  (** the failing run's result, when it returned *)
    }

val schedule_to_string : (int * int) list -> string

val policy_of_schedule : (int * int) list -> Sim.policy
(** Replay policy for a recorded schedule: forced (step, core) picks over
    the explorer's default rule.  With the same program under test this
    reproduces the explored run exactly. *)

val explore :
  ?budget:int ->
  ?max_runs:int ->
  ?log:(string -> unit) ->
  run_one:(Sim.policy -> 'a) ->
  check:('a -> string option) ->
  unit ->
  'a verdict
(** [explore ~run_one ~check ()] enumerates schedules; [run_one] must build
    a {e fresh} program instance per call (group, heap, structure) so every
    recorded schedule replays bit-for-bit; [check] returns a failure reason
    for a run's result, or [None] when it passed.  Defaults: [budget] 2
    preemptions, [max_runs] 2000. *)
