open Effect
open Effect.Deep

type result = {
  virtual_time : int;
  crashed : bool array;
  cache_stats : Machine.Cache.stats;
  context_switches : int;
  steps : int;
}

(* Structured livelock diagnostic: enough per-process state to tell a wedge
   (everyone waiting on a crashed peer) from a runaway loop. *)
type proc_state = [ `Runnable | `Parked of int | `Finished | `Crashed ]

type proc_diag = {
  d_pid : int;
  d_state : proc_state;
  d_clock : int;  (* virtual time of the process' hardware context *)
  d_accesses : int;  (* instrumented accesses it performed *)
  d_last_line : int;  (* cache line of its last instrumented access *)
}

type stuck_info = {
  s_reason : string;
  s_time : int;  (* max core clock when the scheduler gave up *)
  s_steps : int;
  s_procs : proc_diag array;
}

exception Stuck of stuck_info

let state_name = function
  | `Runnable -> "runnable"
  | `Parked t -> Printf.sprintf "parked(wake@%d)" t
  | `Finished -> "finished"
  | `Crashed -> "crashed"

let stuck_to_string i =
  let b = Buffer.create 256 in
  Printf.bprintf b "Sim.Stuck: %s at t=%d after %d steps\n" i.s_reason i.s_time
    i.s_steps;
  Array.iter
    (fun d ->
      Printf.bprintf b "  pid %d: %-18s clock=%-10d accesses=%-9d last line=%d\n"
        d.d_pid (state_name d.d_state) d.d_clock d.d_accesses d.d_last_line)
    i.s_procs;
  Buffer.contents b

let () =
  Printexc.register_printer (function
    | Stuck i -> Some (stuck_to_string i)
    | _ -> None)

type _ Effect.t +=
  | Yield : unit Effect.t
      (* charge the cycles the hook left in the run's [charge] cell; a
         constant effect, so yielding allocates no effect value *)
  | Stall : int -> unit Effect.t  (* park for this many cycles *)

(* What a fiber slice produced when control returned to the scheduler.  The
   continuation to resume later rides along inside the outcome. *)
type outcome =
  | Yielded of (unit, outcome) continuation
  | Stalled of int * (unit, outcome) continuation
  | Finished
  | Crash_exit
  | Failed of exn * Printexc.raw_backtrace

type status =
  | Fresh of (unit -> unit)
  | Ready of (unit, outcome) continuation
  | Done
  | Dead

type proc = { pid : int; mutable st : status; mutable wake_at : int }

type core = {
  mutable time : int;
  runq : int Queue.t;
  mutable quantum_left : int;
  mutable switches : int;
  wakes : Int_heap.t;
      (* (wake_at, pid) of every Stall on this core, lazily deleted: an
         entry is stale once the process stalled again (its wake_at moved),
         finished, or died.  Gives the all-asleep clock jump its earliest
         wake time in O(log queue) instead of a queue fold. *)
}

(* The handler's answer to every [Yield], built once. *)
let yielded = Some (fun k -> Yielded k)

let handler : (unit, outcome) Effect.Deep.handler =
  {
    retc = (fun () -> Finished);
    exnc =
      (fun e ->
        match e with
        | Runtime.Ctx.Crashed -> Crash_exit
        | e -> Failed (e, Printexc.get_raw_backtrace ()));
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, outcome) continuation -> outcome) option ->
        match eff with
        | Yield -> yielded
        | Stall c ->
            Some (fun (k : (a, outcome) continuation) -> Stalled (c, k))
        | _ -> None);
  }

(* A scheduling choice point under [`Systematic]: the runnable hardware
   contexts, with the process at the front of each run queue and the cache
   line of the instrumented access it will perform when resumed (-1 before
   its first access).  The hook records the line *before* performing
   [Yield], so a suspended fiber's pending access is already visible —
   exactly what conflict-driven exploration needs. *)
type candidate = { cand_core : int; cand_pid : int; cand_line : int }

type policy =
  [ `Min_time
  | `Random_walk of int
  | `Systematic of step:int -> candidate array -> int ]

let run ?(machine = Machine.Config.intel_i7_4770) ?(max_steps = 2_000_000_000)
    ?(policy = `Min_time) ?tick group bodies =
  let open Runtime in
  let n = Group.nprocs group in
  assert (Array.length bodies = n);
  let ncores = Machine.Config.contexts machine in
  let cache = Machine.Cache.create machine in
  let cores =
    Array.init ncores (fun _ ->
        {
          time = 0;
          runq = Queue.create ();
          quantum_left = machine.Machine.Config.quantum;
          switches = 0;
          wakes = Int_heap.create ();
        })
  in
  let core_of pid = pid mod ncores in
  let procs =
    Array.init n (fun pid -> { pid; st = Fresh bodies.(pid); wake_at = 0 })
  in
  Array.iter (fun p -> Queue.push p.pid cores.(core_of p.pid).runq) procs;
  (* Indexed ready-set: a doubly-linked list (sentinel at index [ncores])
     over the cores with a non-empty run queue, in ascending core order.
     Processes are pinned to [pid mod ncores], so cores only ever *leave*
     the set (when their last process finishes or crashes) — removal is
     O(1) and the ascending/descending iteration orders reproduce the old
     0..ncores-1 / ncores-1..0 scan orders exactly. *)
  let rnext = Array.make (ncores + 1) ncores in
  let rprev = Array.make (ncores + 1) ncores in
  for c = ncores - 1 downto 0 do
    if not (Queue.is_empty cores.(c).runq) then begin
      let s = ncores in
      rnext.(c) <- rnext.(s);
      rprev.(c) <- s;
      rprev.(rnext.(s)) <- c;
      rnext.(s) <- c
    end
  done;
  let ready_remove c =
    rnext.(rprev.(c)) <- rnext.(c);
    rprev.(rnext.(c)) <- rprev.(c)
  in
  (* Install simulator hooks. *)
  let saved_hooks = Array.map (fun c -> c.Ctx.hook) group.Group.ctxs in
  let last_line = Array.make n (-1) in
  let charge = ref 0 in
  let install pid =
    let ctx = Group.ctx group pid in
    let context = core_of pid in
    (* Chain any hook installed before the run (e.g. a sanitizer's) rather
       than overwriting it: it observes the access, then we charge the cache
       model and yield to the scheduler. *)
    let prev = saved_hooks.(pid) in
    ctx.Ctx.hook <-
      (fun c ~line kind ->
        prev c ~line kind;
        last_line.(pid) <- line;
        charge := Machine.Cache.access cache ~context kind ~line;
        perform Yield);
    ctx.Ctx.now_impl <- (fun () -> cores.(context).time);
    ctx.Ctx.stall_impl <- (fun cycles -> perform (Stall cycles))
  in
  for pid = 0 to n - 1 do
    install pid
  done;
  let live = ref n in
  let steps = ref 0 in
  let crashed = Array.make n false in
  let failure = ref None in
  let diagnose reason =
    let max_time = Array.fold_left (fun acc c -> max acc c.time) 0 cores in
    let procs_diag =
      Array.map
        (fun p ->
          let clock = cores.(core_of p.pid).time in
          let state =
            match p.st with
            | Done -> `Finished
            | Dead -> `Crashed
            | Fresh _ | Ready _ ->
                if p.wake_at > clock then `Parked p.wake_at else `Runnable
          in
          {
            d_pid = p.pid;
            d_state = state;
            d_clock = clock;
            d_accesses =
              Ctx.stats_total_accesses (Group.ctx group p.pid).Ctx.stats;
            d_last_line = last_line.(p.pid);
          })
        procs
    in
    let info =
      { s_reason = reason; s_time = max_time; s_steps = !steps;
        s_procs = procs_diag }
    in
    (* Livelocks are usually fatal to the whole run; print the diagnostic
       even if a harness swallows the exception payload. *)
    prerr_string (stuck_to_string info);
    Stuck info
  in
  (* Rotate the front of a core's run queue to its back, charging a context
     switch when the queue actually holds more than one process. *)
  let rotate core =
    if Queue.length core.runq > 1 then begin
      let pid = Queue.pop core.runq in
      Queue.push pid core.runq;
      core.time <- core.time + machine.Machine.Config.ctx_switch;
      core.switches <- core.switches + 1
    end;
    core.quantum_left <- machine.Machine.Config.quantum
  in
  (* Pick the next core to run: minimal virtual time (faithful parallel
     model), or a seeded uniform choice among non-empty cores (logical
     interleaving exploration). *)
  let walk_rng =
    match policy with
    | `Random_walk seed -> Some (Random.State.make [| seed; 0x51D |])
    | `Min_time | `Systematic _ -> None
  in
  (* Minimum-time selection: a binary heap keyed (core clock, core index)
     with lazy deletion.  Entries go stale when a core's clock advances or
     its queue empties; the skim discards them at the top.  The invariant —
     every ready core has an entry carrying its current clock — is restored
     after each step by the push in the main loop, and lexicographic order
     reproduces the old linear scan's lowest-index-wins tie-break. *)
  let use_heap = match policy with `Min_time -> true | _ -> false in
  let coreheap = Int_heap.create () in
  if use_heap then begin
    let c = ref rnext.(ncores) in
    while !c <> ncores do
      Int_heap.push coreheap 0 !c;
      c := rnext.(!c)
    done
  end;
  let rec pick_min_time () =
    if Int_heap.is_empty coreheap then -1
    else begin
      let c = Int_heap.min_value coreheap in
      if
        Queue.is_empty cores.(c).runq
        || cores.(c).time <> Int_heap.min_key coreheap
      then begin
        Int_heap.pop_min coreheap;
        pick_min_time ()
      end
      else c
    end
  in
  let pick_core () =
    match policy with
    | `Min_time -> pick_min_time ()
    | `Random_walk _ ->
        let rng = Option.get walk_rng in
        (* Ascending ready-set walk consing gives the descending candidate
           list the old 0..ncores-1 loop built. *)
        let candidates = ref [] in
        let len = ref 0 in
        let c = ref rnext.(ncores) in
        while !c <> ncores do
          candidates := !c :: !candidates;
          incr len;
          c := rnext.(!c)
        done;
        (match !candidates with
        | [] -> -1
        | cs -> List.nth cs (Random.State.int rng !len))
    | `Systematic choose ->
        (* The chooser sees every runnable context with its front process'
           pending access and picks one by index; choices are what an
           exploration driver records and replays.  Sleeping fronts are
           still offered — [prepare_front] below handles them exactly as
           under the other policies, and the chooser is simply consulted
           again after any clock jump.  The descending ready-set walk
           conses the same ascending candidate array as the old
           ncores-1..0 scan. *)
        let cands = ref [] in
        let c = ref rprev.(ncores) in
        while !c <> ncores do
          let pid = Queue.peek cores.(!c).runq in
          cands :=
            { cand_core = !c; cand_pid = pid; cand_line = last_line.(pid) }
            :: !cands;
          c := rprev.(!c)
        done;
        let cands = Array.of_list !cands in
        if Array.length cands = 0 then -1
        else begin
          let i = choose ~step:!steps cands in
          if i < 0 || i >= Array.length cands then
            invalid_arg "Sim.run: `Systematic chooser index out of range";
          cands.(i).cand_core
        end
  in
  (* Ensure the front of [core]'s queue is runnable, rotating past sleepers
     or advancing time when everyone on the core sleeps.  Returns [false]
     when the core's clock had to jump forward: the caller must then re-pick
     the minimum-time core instead of running this one, or accesses would
     execute out of virtual-time order (other cores may have work scheduled
     before the jumped-to instant). *)
  let prepare_front core =
    let len = Queue.length core.runq in
    let rec go tried =
      let pid = Queue.peek core.runq in
      let p = procs.(pid) in
      if p.wake_at <= core.time then true
      else if tried < len - 1 then begin
        rotate core;
        go (tried + 1)
      end
      else begin
        (* All processes on this core are sleeping; jump to earliest wake,
           read off the wake heap.  Every sleeper's current wake_at has an
           entry (pushed when it stalled); entries whose process moved on,
           finished or died are discarded at the top.  A valid entry at or
           below the current clock cannot exist here: its process would be
           runnable, contradicting the all-asleep branch. *)
        let rec min_wake () =
          if Int_heap.is_empty core.wakes then
            (* Defensive fallback; unreachable while the push-on-stall
               invariant holds. *)
            Queue.fold (fun acc pid -> min acc procs.(pid).wake_at) max_int
              core.runq
          else begin
            let t = Int_heap.min_key core.wakes in
            let p = procs.(Int_heap.min_value core.wakes) in
            match p.st with
            | (Fresh _ | Ready _) when p.wake_at = t -> t
            | _ ->
                Int_heap.pop_min core.wakes;
                min_wake ()
          end
        in
        core.time <- max core.time (min_wake ());
        false
      end
    in
    go 0
  in
  let finish_front core p ~dead =
    ignore (Queue.pop core.runq);
    if Queue.is_empty core.runq then ready_remove (core_of p.pid);
    p.st <- (if dead then Dead else Done);
    if dead then begin
      crashed.(p.pid) <- true;
      (* The OS knows: signals to this pid now fail with ESRCH, and
         crash-aware reclamation paths may skip it. *)
      Group.mark_crashed group p.pid
    end;
    decr live;
    core.quantum_left <- machine.Machine.Config.quantum
  in
  (* Virtual-time tick hook (telemetry sampling).  Under [`Min_time] the
     picked core always has the minimal clock among runnable cores, so its
     time is a monotone global "now": boundaries are fired exactly once, in
     order, with their nominal timestamp.  The callback runs in scheduler
     context, outside every fiber — it must not perform simulated accesses,
     only uninstrumented [peek]s. *)
  let tick_state =
    match tick with
    | None -> None
    | Some (every, f) ->
        if every <= 0 then invalid_arg "Sim.run: tick interval must be > 0";
        Some (every, f, ref every)
  in
  (* Restore hooks so post-run code executes directly — also on a Stuck
     escape, so a caller that catches the diagnostic is left with working
     contexts. *)
  let restore_hooks () =
    Array.iteri
      (fun pid ctx ->
        ctx.Ctx.hook <- saved_hooks.(pid);
        ctx.Ctx.now_impl <- (fun () -> 0);
        ctx.Ctx.stall_impl <- (fun _ -> ()))
      group.Group.ctxs
  in
  (try
     while !live > 0 && !failure = None do
       incr steps;
       if !steps > max_steps then
         raise (diagnose "scheduler step budget exceeded (livelock?)");
       let c = pick_core () in
       if c < 0 then
         raise (diagnose "live processes but empty run queues (internal error)");
       let core = cores.(c) in
       let t0 = core.time in
       (match tick_state with
       | Some (every, f, next) ->
           while !next <= core.time do
             f !next;
             next := !next + every
           done
       | None -> ());
       (if prepare_front core then begin
          let pid = Queue.peek core.runq in
          let p = procs.(pid) in
          let outcome =
            match p.st with
            | Fresh body -> match_with body () handler
            | Ready k -> continue k ()
            | Done | Dead -> raise (diagnose "scheduled a finished process")
          in
          match outcome with
          | Yielded k ->
              let cost = !charge in
              p.st <- Ready k;
              core.time <- core.time + cost;
              core.quantum_left <- core.quantum_left - cost;
              if core.quantum_left <= 0 then rotate core
          | Stalled (cycles, k) ->
              p.st <- Ready k;
              p.wake_at <- core.time + cycles;
              Int_heap.push core.wakes p.wake_at p.pid;
              rotate core
          | Finished -> finish_front core p ~dead:false
          | Crash_exit -> finish_front core p ~dead:true
          | Failed (e, bt) ->
              finish_front core p ~dead:true;
              failure := Some (e, bt)
        end);
       (* Restore the heap invariant: the picked core ran (or its clock
          jumped), so if its clock moved and it is still ready, give it a
          fresh entry.  The superseded entry is discarded by a later skim. *)
       if use_heap && core.time <> t0 && not (Queue.is_empty core.runq) then
         Int_heap.push coreheap core.time c
     done
   with e ->
     restore_hooks ();
     raise e);
  restore_hooks ();
  (match !failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  let virtual_time = Array.fold_left (fun acc c -> max acc c.time) 0 cores in
  let context_switches = Array.fold_left (fun acc c -> acc + c.switches) 0 cores in
  { virtual_time; crashed; cache_stats = Machine.Cache.stats cache;
    context_switches; steps = !steps }
