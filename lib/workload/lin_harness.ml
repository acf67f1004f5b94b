(** Bounded-exploration harness: small fixed workloads on each (scheme,
    structure) cell of the matrix, recorded as histories and driven through
    {!Lincheck.Explore} / {!Lincheck.Checker}.

    Unlike {!Trial}, which runs a fixed {e duration} (so the operation count
    depends on the schedule), every process here runs a fixed per-process
    operation sequence derived only from the seed — the program under test
    is identical across schedules, which is what makes systematic
    exploration meaningful and every recorded preemption schedule
    replayable.

    Every world {!harness} builds runs under one sanitizer
    ({!Sanitized}), so each explored schedule is held to the scheme's SMR
    discipline as well as to the structure's sequential specification.

    Exploration configs are deliberately tiny (a few processes, a handful
    of operations, a small key range) with one hardware context per process
    so the [`Systematic] chooser fully controls the interleaving: with more
    processes than contexts the round-robin quantum would preempt behind
    the explorer's back. *)

open Reclaim
module H = Lincheck.History

type config = {
  nprocs : int;
  ops_per_proc : int;
  key_range : int;
  prefill : int;  (** elements inserted (and recorded) before the run *)
  seed : int;
  capacity : int;
  params : Intf.Params.t;  (** reclamation knobs; {!explore_params} default *)
}

(* Aggressive knobs, or no schedule short enough to explore would ever
   free anything; enough hazard slots for the skip list's towers. *)
let explore_params =
  { Intf.Params.aggressive with hp_slots = (2 * Ds.Skiplist.max_level) + 8 }

let default_config =
  {
    nprocs = 3;
    ops_per_proc = 5;
    key_range = 4;
    prefill = 2;
    seed = 7;
    capacity = 4096;
    params = explore_params;
  }

(* The exploration matrix's program: 2 processes x 3 operations over 2
   keys, prefilled with 1 — small enough to explore at budget 2. *)
let matrix_config =
  {
    default_config with
    nprocs = 2;
    ops_per_proc = 3;
    key_range = 2;
    prefill = 1;
  }

let ds_names = [ "list"; "bst"; "skiplist"; "queue" ]

let spec_of_ds = function
  | "queue" -> Lincheck.Spec.queue
  | "stack" -> Lincheck.Spec.stack
  | _ -> Lincheck.Spec.set

let machine_for cfg = Machine.Config.tiny ~contexts:cfg.nprocs ()

let record rec_ ctx op f wrap =
  let pid = ctx.Runtime.Ctx.pid in
  let tok = H.invoke rec_ ~pid ~time:(Runtime.Ctx.now ctx) op in
  let r = f () in
  H.return_ rec_ tok ~time:(Runtime.Ctx.now ctx) (wrap r)

(* The seeded set workload as explicit scripts: the prefill and each
   process' operations depend on the seed alone, so the program under test
   is the same on every schedule. *)
let set_scripts cfg =
  let prefill =
    List.init cfg.prefill (fun i -> H.Add (1 + (((i + 1) * 7) mod cfg.key_range)))
  in
  let script pid =
    let rng = Random.State.make [| cfg.seed; pid; 0x11c |] in
    List.init cfg.ops_per_proc (fun _ ->
        let key = 1 + Random.State.int rng cfg.key_range in
        match Random.State.int rng 3 with
        | 0 -> H.Add key
        | 1 -> H.Remove key
        | _ -> H.Mem key)
  in
  (prefill, Array.init cfg.nprocs script)

module Mk (RM : Intf.RECORD_MANAGER) = struct
  module Face = Set_adapter.Face (RM)
  module Q = Ds.Ms_queue.Make (RM)

  let fresh cfg =
    let group = Runtime.Group.create ~seed:cfg.seed cfg.nprocs in
    let heap = Memory.Heap.create () in
    let env = Intf.Env.create ~params:cfg.params group heap in
    let rm = RM.create env in
    (group, rm)

  (* One run of explicit per-process set scripts under [policy]; a fresh
     world every call, as stateless exploration requires.  The prefill runs
     uninstrumented (no scheduler hooks yet) but {e is} recorded: it is part
     of the history, so the checker's spec still starts from the empty
     set. *)
  let run_ops (module S : Face.SET) ?(unreliable = false) cfg ~prefill
      ~scripts policy =
    let group, rm = fresh cfg in
    if unreliable then group.Runtime.Group.signals_unreliable <- true;
    let s = S.create rm ~capacity:cfg.capacity in
    let rec_ = H.recorder ~nprocs:cfg.nprocs in
    let apply ctx op =
      let run f = record rec_ ctx op f (fun b -> H.RBool b) in
      match op with
      | H.Add key -> run (fun () -> S.insert s ctx ~key ~value:key)
      | H.Remove key -> run (fun () -> S.delete s ctx key)
      | H.Mem key -> run (fun () -> S.contains s ctx key)
      | _ -> invalid_arg "Lin_harness.run_ops: not a set operation"
    in
    List.iter (apply (Runtime.Group.ctx group 0)) prefill;
    let body pid () =
      List.iter (apply (Runtime.Group.ctx group pid)) scripts.(pid)
    in
    ignore
      (Sim.run ~machine:(machine_for cfg) ~max_steps:2_000_000 ~policy group
         (Array.init cfg.nprocs body));
    H.snapshot rec_

  (* Queue workload: unique values per enqueue (pid-tagged), so a duplicated
     or lost dequeue is visible to the FIFO spec. *)
  let run_queue cfg policy =
    let group, rm = fresh cfg in
    let q = Q.create rm ~capacity:cfg.capacity in
    let rec_ = H.recorder ~nprocs:cfg.nprocs in
    let ctx0 = Runtime.Group.ctx group 0 in
    for i = 1 to cfg.prefill do
      record rec_ ctx0 (H.Enq (900 + i))
        (fun () -> Q.enqueue q ctx0 (900 + i))
        (fun () -> H.RUnit)
    done;
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| cfg.seed; pid; 0x40e |] in
      let next = ref 0 in
      for _ = 1 to cfg.ops_per_proc do
        if Random.State.int rng 5 < 3 then begin
          incr next;
          let v = (pid * 1000) + !next in
          record rec_ ctx (H.Enq v)
            (fun () -> Q.enqueue q ctx v)
            (fun () -> H.RUnit)
        end
        else
          record rec_ ctx H.Deq
            (fun () -> Q.dequeue q ctx)
            (fun r -> H.RVal r)
      done
    in
    ignore
      (Sim.run ~machine:(machine_for cfg) ~max_steps:2_000_000 ~policy group
         (Array.init cfg.nprocs body));
    H.snapshot rec_

  (* The lazy skip list holds spin locks across its update windows; under
     DEBRA+ those windows are signal-masked, which is only sound with
     acknowledgement-based (unreliable) signal delivery — see
     lib/ds/skiplist.ml. *)
  let set_ops ~ds cfg ~prefill ~scripts policy =
    match ds with
    | "list" -> run_ops Face.hm_list cfg ~prefill ~scripts policy
    | "bst" -> run_ops Face.bst cfg ~prefill ~scripts policy
    | "skiplist" ->
        run_ops Face.skiplist ~unreliable:RM.supports_crash_recovery cfg
          ~prefill ~scripts policy
    | ds -> invalid_arg ("Lin_harness: unknown structure " ^ ds)

  let run ~ds cfg policy =
    match ds with
    | "queue" -> run_queue cfg policy
    | _ ->
        let prefill, scripts = set_scripts cfg in
        set_ops ~ds cfg ~prefill ~scripts policy
end

exception Violation of string

let () =
  Printexc.register_printer (function
    | Violation v -> Some ("SMR violation: " ^ v)
    | _ -> None)

(* [RM] with one sanitizer per world: every world [create] builds is held
   to the scheme's discipline, and its first violation raises {!Violation}
   from the offending step, which fails the run. *)
module Sanitized (RM : Intf.RECORD_MANAGER) = struct
  include RM

  let create env =
    let { Intf.Env.group; heap; _ } = env in
    let san =
      Sanitizer.create ~scheme:RM.Reclaimer.name
        ~discipline:RM.Reclaimer.discipline ~heap ~group
    in
    let event ctx ev =
      Sanitizer.on_event san ctx ev;
      if Sanitizer.violation_count san > 0 then
        raise
          (Violation
             (Format.asprintf "%a" Sanitizer.pp_violation
                (List.hd (Sanitizer.violations san))))
    in
    Runtime.Group.subscribe group
      (Runtime.Ctx.subscriber ~scope:(Memory.Heap.scope heap) ~event ());
    RM.create env
end

(* A scheme's harness, over the registry's Experiment 2 Record Manager
   (shared pool behind the reusing schemes, so premature frees really
   recycle memory and use-after-free has teeth), sanitized. *)
type harness = {
  run : ds:string -> config -> Sim.policy -> H.t;
  set_ops :
    ds:string ->
    config ->
    prefill:H.op list ->
    scripts:H.op list array ->
    Sim.policy ->
    H.t;
      (** explicit per-process set scripts instead of the seeded workload *)
}

let harness : Registry.entry -> harness =
  let memo =
    Registry.memo (fun variant e ->
        let module RM = (val Registry.rm variant e) in
        let module M = Mk (Sanitized (RM)) in
        { run = M.run; set_ops = M.set_ops })
  in
  memo Registry.Exp2

let scheme_names = Registry.names
let harness_of scheme = harness (Registry.find scheme)

(** One run of a matrix cell under an explicit policy — the replay path. *)
let run_once ~ds ~scheme cfg policy = (harness_of scheme).run ~ds cfg policy

(** Bounded exploration of one matrix cell; every schedule's history is
    checked against the structure's sequential spec, and any exception the
    run raises (a sanitizer {!Violation}, an arena's use-after-free /
    double-free trap, a wedge) rejects the cell with the schedule that
    triggered it. *)
let explore ?(budget = 2) ?(max_runs = 2000) ?log ~ds ~scheme cfg =
  let p = harness_of scheme in
  let spec = spec_of_ds ds in
  Lincheck.Explore.explore ~budget ~max_runs ?log
    ~run_one:(fun policy -> p.run ~ds cfg policy)
    ~check:(fun h ->
      match Lincheck.Checker.check spec h with
      | Lincheck.Checker.Linearizable -> None
      | v -> Some (Lincheck.Checker.verdict_to_string v))
    ()

let verdict_summary = function
  | Lincheck.Explore.Pass st ->
      Printf.sprintf "pass: %d schedules, %d branch points%s"
        st.Lincheck.Explore.runs st.Lincheck.Explore.branch_points
        (if st.Lincheck.Explore.truncated then " (TRUNCATED)" else "")
  | Lincheck.Explore.Fail { stats; schedule; reason; _ } ->
      Printf.sprintf "FAIL after %d schedules\n  schedule: %s\n  reason: %s"
        stats.Lincheck.Explore.runs
        (Lincheck.Explore.schedule_to_string schedule)
        reason

(** The exploration matrix: every structure x scheme cell explored on
    {!matrix_config}, one verdict line per cell.  Returns the number of
    rejected cells. *)
let matrix ~budget ~max_runs =
  let failures = ref 0 in
  List.iter
    (fun ds ->
      List.iter
        (fun scheme ->
          let v = explore ~budget ~max_runs ~ds ~scheme matrix_config in
          (match v with
          | Lincheck.Explore.Fail _ -> incr failures
          | Lincheck.Explore.Pass _ -> ());
          Printf.printf "%-9s x %-11s %s\n%!" ds scheme (verdict_summary v))
        scheme_names)
    ds_names;
  !failures
