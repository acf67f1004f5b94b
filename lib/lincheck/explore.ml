(** Systematic schedule exploration: CHESS-style bounded-preemption DFS over
    the simulator's [`Systematic] policy, with sleep-set pruning.

    One {e schedule} is the sequence of scheduling choices of a run.  The
    explorer's default rule is run-to-block: keep running the core that ran
    last while it stays runnable, else fall to the lowest-numbered runnable
    core.  A {e preemption} is any deviation from that rule; schedules are
    enumerated depth-first with at most [budget] preemptions each, so a
    schedule is fully described by its (scheduler step, core) preemption
    pairs — the replayable counterexample printed on rejection (see
    {!policy_of_schedule}).

    Two prunings keep the search inside the interesting subspace:

    - {b conflict-driven branching} (DPOR-flavoured): a preemption to
      another core is only scheduled when that core's pending instrumented
      access targets the {e same cache line} as the access about to run —
      commuting adjacent accesses to different lines cannot change what any
      process observes, so a preemption there is equivalent to one deferred
      to the next conflict.  A fiber that has not run yet has no recorded
      pending access and is always branchable.
    - {b sleep sets}: after the subtree that ran process [p] first at a
      choice point is fully explored, [p] is put to sleep along the sibling
      branches and not branched to again until an access conflicting with
      [p]'s pending access (or [p] itself) executes — the classic
      redundant-interleaving filter.

    Every run executes a {e fresh} instance of the program under test
    ([run_one] must build a new group/heap/structure each call), so the
    exploration is stateless and each recorded schedule replays
    bit-for-bit. *)

type frame = {
  f_step : int;  (* scheduler step of this choice point *)
  f_choice : int;  (* core chosen *)
  f_pid : int;  (* chosen candidate's process *)
  f_line : int;  (* ... and its pending access line *)
  f_preempt : bool;  (* the choice deviated from the default rule *)
  f_alts : Sim.candidate list;  (* siblings not yet explored *)
  f_sleep : (int * int) list;  (* sleep set on entry: (pid, line) *)
}

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

let schedule_to_string = function
  | [] -> "(default schedule, no preemptions)"
  | s ->
      String.concat ","
        (List.map (fun (step, core) -> Printf.sprintf "%d:%d" step core) s)

(* The default rule is run-to-block with a fairness quantum: keep running
   the core that ran last, but after [fair_quantum] consecutive steps
   rotate to the next runnable core.  Pure run-to-block livelocks: a fiber
   spinning on a lock (or a pool slot) held by a suspended fiber never
   blocks, so the holder would never be rescheduled.  The rotation is
   deterministic state of the rule itself, identical during exploration
   and replay, so schedules stay replayable.  Legitimate bursts in the
   harness's tiny workloads are far shorter than the quantum; only
   waiting-on-a-suspended-fiber spins reach it. *)
let fair_quantum = 5_000

type drule = { mutable dr_last : int; mutable dr_run : int }

let new_drule () = { dr_last = -1; dr_run = 0 }

(* Record the core actually chosen this step (forced, branched, or
   default), maintaining the rule's state. *)
let note dr core =
  if core = dr.dr_last then dr.dr_run <- dr.dr_run + 1
  else begin
    dr.dr_last <- core;
    dr.dr_run <- 1
  end

let default_index dr (cands : Sim.candidate array) =
  let n = Array.length cands in
  let rec find core i =
    if i >= n then -1 else if cands.(i).Sim.cand_core = core then i
    else find core (i + 1)
  in
  let li = find dr.dr_last 0 in
  if li < 0 then 0
  else if dr.dr_run >= fair_quantum && n > 1 then (li + 1) mod n
  else li

let index_of_core cands core =
  let n = Array.length cands in
  let rec go i =
    if i >= n then
      invalid_arg
        (Printf.sprintf
           "Lincheck.Explore: forced core %d not runnable on replay \
            (non-deterministic program under test?)"
           core)
    else if cands.(i).Sim.cand_core = core then i
    else go (i + 1)
  in
  go 0

(* Waking rule: an executed access wakes every sleeper it conflicts with,
   and a sleeping process that runs wakes itself (its recorded pending
   access is stale). *)
let wake sleep (c : Sim.candidate) =
  List.filter
    (fun (pid, line) -> pid <> c.Sim.cand_pid && line <> c.Sim.cand_line)
    sleep

(** Replay policy for a recorded schedule: forced (step, core) picks over
    the explorer's default rule.  With the same program under test this
    reproduces the explored run exactly. *)
let policy_of_schedule schedule : Sim.policy =
  let dr = new_drule () in
  `Systematic
    (fun ~step cands ->
      let i =
        match List.assoc_opt step schedule with
        | Some core -> index_of_core cands core
        | None -> default_index dr cands
      in
      note dr cands.(i).Sim.cand_core;
      i)

let count_preempts forced =
  List.fold_left (fun acc f -> if f.f_preempt then acc + 1 else acc) 0 forced

let schedule_of stack =
  List.filter_map
    (fun f -> if f.f_preempt then Some (f.f_step, f.f_choice) else None)
    stack

(* One completed replay job: the run's verdict, its full choice stack
   (forced prefix plus fresh extension, shallowest first), and how many
   fresh choice points offered at least one alternative. *)
type 'a run_res = {
  r_outcome : ('a, string * 'a option) result;
  r_stack : frame list;
  r_branches : int;
}

(* Execute one schedule: replay the [forced] choices (shallowest first),
   then extend with default choices, recording alternatives at every fresh
   choice point while the preemption budget is not spent. *)
let run_job ~budget ~(run_one : Sim.policy -> 'a)
    ~(check : 'a -> string option) (forced : frame list) : 'a run_res =
  let forced_arr = Array.of_list forced in
  let nforced = Array.length forced_arr in
  let spent = count_preempts forced >= budget in
  let branches = ref 0 in
  let fresh = ref [] in
  (* Sleep set at the deepest replayed node; choices before it already
     folded their wakes into that node's [f_sleep] when it was created. *)
  let live_sleep =
    ref (if nforced = 0 then [] else forced_arr.(nforced - 1).f_sleep)
  in
  let d = ref 0 in
  let dr = new_drule () in
  let chooser ~step cands =
    let di = !d in
    incr d;
    if di < nforced then begin
      let f = forced_arr.(di) in
      let i = index_of_core cands f.f_choice in
      note dr f.f_choice;
      if di = nforced - 1 then live_sleep := wake !live_sleep cands.(i);
      i
    end
    else if spent then begin
      (* Budget spent: every fresh frame would have no alternatives, lie
         deeper than any frame backtracking can branch from, and never be a
         preemption, so recording it (or its sleep set) changes nothing. *)
      let xi = default_index dr cands in
      note dr cands.(xi).Sim.cand_core;
      xi
    end
    else begin
      let xi = default_index dr cands in
      let x = cands.(xi) in
      let alts =
        Array.to_list cands
        |> List.filter (fun c ->
               c.Sim.cand_core <> x.Sim.cand_core
               (* a fiber that has not run yet has no recorded pending
                  access (line -1): always branchable *)
               && (c.Sim.cand_line < 0 || c.Sim.cand_line = x.Sim.cand_line)
               && not
                    (List.mem (c.Sim.cand_pid, c.Sim.cand_line) !live_sleep))
      in
      if alts <> [] then incr branches;
      fresh :=
        {
          f_step = step;
          f_choice = x.Sim.cand_core;
          f_pid = x.Sim.cand_pid;
          f_line = x.Sim.cand_line;
          f_preempt = false;
          f_alts = alts;
          f_sleep = !live_sleep;
        }
        :: !fresh;
      note dr x.Sim.cand_core;
      live_sleep := wake !live_sleep x;
      xi
    end
  in
  let outcome =
    match run_one (`Systematic chooser) with
    | v -> ( match check v with None -> Ok v | Some r -> Error (r, Some v))
    | exception e -> Error (Printexc.to_string e, None)
  in
  { r_outcome = outcome; r_stack = forced @ List.rev !fresh;
    r_branches = !branches }

let truncation_msg runs =
  Printf.sprintf
    "exploration truncated at %d runs (unexplored branches remain; raise \
     max_runs for full coverage)"
    runs

(* Depth-first exploration. *)
let explore ?(budget = 2) ?(max_runs = 2000) ?(log = fun (_ : string) -> ())
    ~(run_one : Sim.policy -> 'a) ~(check : 'a -> string option) () :
    'a verdict =
  let runs = ref 0 in
  let branch_points = ref 0 in
  let stats truncated =
    { runs = !runs; truncated; branch_points = !branch_points }
  in
  let rec attempt forced =
    if !runs >= max_runs then begin
      log (truncation_msg !runs);
      Pass (stats true)
    end
    else begin
      incr runs;
      let r = run_job ~budget ~run_one ~check forced in
      branch_points := !branch_points + r.r_branches;
      match r.r_outcome with
      | Error (reason, witness) ->
          Fail { stats = stats false; schedule = schedule_of r.r_stack;
                 reason; witness }
      | Ok _ -> backtrack (List.rev r.r_stack)
    end
  (* Deepest-first: find the deepest choice point with an unexplored
     sibling, switch to it (a preemption), and put the branch just explored
     to sleep along the new one. *)
  and backtrack rev_stack =
    match rev_stack with
    | [] -> Pass (stats false)
    | f :: rest -> (
        match f.f_alts with
        | [] -> backtrack rest
        | a :: more ->
            let f' =
              {
                f_step = f.f_step;
                f_choice = a.Sim.cand_core;
                f_pid = a.Sim.cand_pid;
                f_line = a.Sim.cand_line;
                f_preempt = true;
                f_alts = more;
                f_sleep = (f.f_pid, f.f_line) :: f.f_sleep;
              }
            in
            attempt (List.rev (f' :: rest)))
  in
  attempt []
