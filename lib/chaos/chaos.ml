(** Deterministic fault-injection engine — implementation.

    Determinism argument: every trigger below is a pure function of
    per-process instrumented-access counts and of the order of
    [send_signal] calls, both of which are fixed by the simulator's
    schedule.  The engine reads no clocks and draws no randomness after
    {!random_plan}; replaying a plan under the same schedule fires every
    fault at the same point. *)

type crash_kind = Anywhere | In_operation | In_handler | Neutralizer

type fault =
  | Crash of { pid : int; at : int; kind : crash_kind }
  | Drop_signals of { target : int; first : int; count : int }
  | Delay_signals of { target : int; first : int; count : int; by : int }
  | Record_budget of int

type plan = { seed : int; faults : fault list }

let kind_to_string = function
  | Anywhere -> "anywhere"
  | In_operation -> "in-operation"
  | In_handler -> "in-handler"
  | Neutralizer -> "neutralizer"

let fault_to_string = function
  | Crash { pid; at; kind = Neutralizer } ->
      Printf.sprintf "crash(sender of signal #%d%s)" at
        (if pid >= 0 then Printf.sprintf ", pid hint %d" pid else "")
  | Crash { at; kind = In_handler; _ } ->
      Printf.sprintf "crash(handler run #%d group-wide)" at
  | Crash { pid; at; kind } ->
      Printf.sprintf "crash(pid %d, access %d, %s)" pid at (kind_to_string kind)
  | Drop_signals { target; first; count } ->
      Printf.sprintf "drop-signals(target %d, deliveries %d..%d)" target first
        (first + count - 1)
  | Delay_signals { target; first; count; by } ->
      Printf.sprintf "delay-signals(target %d, deliveries %d..%d, by %d accesses)"
        target first (first + count - 1) by
  | Record_budget b -> Printf.sprintf "record-budget(%d)" b

let plan_to_string p =
  Printf.sprintf "seed %d: [%s]" p.seed
    (String.concat "; " (List.map fault_to_string p.faults))

type kind_spec =
  [ `Crash | `Crash_in_handler | `Crash_neutralizer | `Drop | `Delay | `Oom of int ]

let random_plan ~seed ~nprocs kinds =
  let rng = Random.State.make [| seed; 0x0c4a05 |] in
  (* Victims avoid pid 0 when the group allows it, so at least one process
     survives to run the post-fault validation. *)
  let victim () = if nprocs > 1 then 1 + Random.State.int rng (nprocs - 1) else 0 in
  let faults =
    List.map
      (function
        | `Crash ->
            Crash
              {
                pid = victim ();
                at = 2_000 + Random.State.int rng 30_000;
                kind = In_operation;
              }
        | `Crash_in_handler ->
            (* Group-wide nth handler run: any given pid may be neutralized
               rarely or never, but some handler runs early in every
               contended execution. *)
            Crash { pid = -1; at = 1 + Random.State.int rng 3; kind = In_handler }
        | `Crash_neutralizer ->
            Crash
              { pid = -1; at = 1 + Random.State.int rng 20; kind = Neutralizer }
        | `Drop ->
            Drop_signals
              {
                target = victim ();
                first = Random.State.int rng 4;
                count = 1 + Random.State.int rng 8;
              }
        | `Delay ->
            Delay_signals
              {
                target = victim ();
                first = Random.State.int rng 4;
                count = 1 + Random.State.int rng 8;
                by = 200 + Random.State.int rng 2_000;
              }
        | `Oom b -> Record_budget b)
      kinds
  in
  { seed; faults }

(* Faults whose triggers are per-victim state only (its own access count,
   the heap budget) survive on a non-deterministic backend; everything
   keyed to a *global* order — handler runs group-wide, signal ordinals,
   per-target delivery windows — needs the simulator's total order of
   events and is dropped with a note. *)
let degrade plan =
  let supported, dropped =
    List.partition
      (function
        | Crash { kind = Anywhere | In_operation; _ } | Record_budget _ ->
            true
        | Crash { kind = In_handler | Neutralizer; _ }
        | Drop_signals _ | Delay_signals _ ->
            false)
      plan.faults
  in
  ({ plan with faults = supported }, dropped)

type summary = {
  crashes : int;
  handler_crashes : int;
  signals_dropped : int;
  signals_delayed : int;
  signals_delivered_late : int;
  budget_refusals : int;
}

type t = {
  group : Runtime.Group.t;
  heap : Memory.Heap.t;
  acc : int array;  (* per-pid instrumented accesses since install *)
  (* crash triggers *)
  crash_at : (int * crash_kind) option array;  (* per pid, access-count keyed *)
  was_in_op : bool array;  (* per pid: [in_op] at the previous access *)
  mutable handler_nth : int;  (* group-wide nth handler run; -1 = never *)
  mutable handler_runs_total : int;
  armed : bool array;  (* crash at the pid's next access (Neutralizer) *)
  neutralizer_nth : int;  (* group-wide signal ordinal arming it; -1 = never *)
  mutable signals_sent_total : int;
  (* signal routing *)
  sigs_to : int array;  (* deliveries routed per target *)
  drops : (int * int * int) list;  (* target, first, count *)
  delays : (int * int * int * int) list;  (* target, first, count, by *)
  pending : int list array;  (* per target: due access counts *)
  route_installed : bool;
  (* memory *)
  saved_budget : int;
  refusals_before : int;  (* the heap's budget refusals at install *)
  mutable probe : Runtime.Ctx.subscriber option;  (* [None] once uninstalled *)
  (* outcome *)
  mutable crashes : int;
  mutable handler_crashes : int;
  mutable dropped : int;
  mutable delayed : int;
  mutable delivered_late : int;
  mutable log : string list;  (* newest first *)
}

let note t msg = t.log <- msg :: t.log

let install ?(in_op = fun (_ : Runtime.Ctx.t) -> true) plan ~group ~heap =
  let n = Runtime.Group.nprocs group in
  let valid pid = pid >= 0 && pid < n in
  let crash_at = Array.make n None in
  let handler_nth = ref (-1) in
  let neutralizer_nth = ref (-1) in
  let drops = ref [] in
  let delays = ref [] in
  let budget = ref (-1) in
  let saved_budget = Memory.Heap.record_budget heap in
  List.iter
    (function
      | Crash { at; kind = Neutralizer; _ } -> neutralizer_nth := at
      | Crash { at; kind = In_handler; _ } -> handler_nth := at
      | Crash { pid; at; kind } when valid pid -> crash_at.(pid) <- Some (at, kind)
      | Crash _ -> ()
      | Drop_signals { target; first; count } when valid target ->
          drops := (target, first, count) :: !drops
      | Drop_signals _ -> ()
      | Delay_signals { target; first; count; by } when valid target ->
          delays := (target, first, count, by) :: !delays
      | Delay_signals _ -> ()
      | Record_budget b -> budget := b)
    plan.faults;
  let t =
    {
      group;
      heap;
      acc = Array.make n 0;
      crash_at;
      was_in_op = Array.make n false;
      handler_nth = !handler_nth;
      handler_runs_total = 0;
      armed = Array.make n false;
      neutralizer_nth = !neutralizer_nth;
      signals_sent_total = 0;
      sigs_to = Array.make n 0;
      drops = !drops;
      delays = !delays;
      pending = Array.make n [];
      route_installed = !drops <> [] || !delays <> [];
      saved_budget;
      refusals_before = Memory.Heap.budget_refusals heap;
      probe = None;
      crashes = 0;
      handler_crashes = 0;
      dropped = 0;
      delayed = 0;
      delivered_late = 0;
      log = [];
    }
  in
  (* Per-access trigger: count, land due delayed signals, fire crashes.
     Raising {!Runtime.Ctx.Crashed} out of the subscriber unwinds the
     victim's body; the runner marks the pid crashed ([ESRCH] from then
     on). *)
  let access (c : Runtime.Ctx.t) ~line:_ (_ : Runtime.Ctx.access_kind) =
    let pid = c.Runtime.Ctx.pid in
    t.acc.(pid) <- t.acc.(pid) + 1;
    (match t.pending.(pid) with
    | [] -> ()
    | l ->
        let due, later = List.partition (fun d -> t.acc.(pid) >= d) l in
        if due <> [] then begin
          t.pending.(pid) <- later;
          t.delivered_late <- t.delivered_late + List.length due;
          (* The delayed POSIX signal finally lands: the handler runs at
             the target's next access, via the normal poll path. *)
          Atomic.set c.Runtime.Ctx.sig_pending true
        end);
    if t.armed.(pid) then begin
      t.armed.(pid) <- false;
      t.crashes <- t.crashes + 1;
      note t
        (Printf.sprintf "crash: pid %d (neutralizer) at access %d" pid
           t.acc.(pid));
      raise Runtime.Ctx.Crashed
    end;
    match t.crash_at.(pid) with
    | Some (at, kind) when t.acc.(pid) >= at - 1 ->
        (* [In_operation] waits until the process has been mid-operation
           since its previous access too: at the access that publishes a
           leave from the quiescent state it is in-operation by its own
           view but still quiescent to everyone else, and a crash there
           would pin nothing. *)
        let ready =
          kind <> In_operation
          ||
          let now = in_op c and before = t.was_in_op.(pid) in
          t.was_in_op.(pid) <- now;
          now && before
        in
        if t.acc.(pid) >= at && ready then begin
          t.crash_at.(pid) <- None;
          t.crashes <- t.crashes + 1;
          note t
            (Printf.sprintf "crash: pid %d (%s) at access %d" pid
               (kind_to_string kind) t.acc.(pid));
          raise Runtime.Ctx.Crashed
        end
    | _ -> ()
  in
  (* Handler-crash fault: die on entry to the nth handler invocation
     group-wide, before any recovery code (rprotect scan, Neutralized) gets
     to run.  The trigger is global because which pid gets neutralized, and
     how often, depends on the scheme's signalling pattern. *)
  let handler_entry (c : Runtime.Ctx.t) =
    t.handler_runs_total <- t.handler_runs_total + 1;
    if t.handler_nth >= 0 && t.handler_runs_total >= t.handler_nth then begin
      t.handler_nth <- -1;
      t.crashes <- t.crashes + 1;
      t.handler_crashes <- t.handler_crashes + 1;
      note t
        (Printf.sprintf
           "crash: pid %d inside signal handler (handler run %d group-wide)"
           c.Runtime.Ctx.pid t.handler_runs_total);
      raise Runtime.Ctx.Crashed
    end
  in
  (* Neutralizer-crash fault: watch the heap's events for the nth signal
     sent group-wide and arm the sender's next access. *)
  let event =
    if t.neutralizer_nth < 0 then None
    else
      Some
        (fun (ctx : Runtime.Ctx.t) ev ->
          match ev with
          | Memory.Smr_event.Signal_sent _ ->
              t.signals_sent_total <- t.signals_sent_total + 1;
              if t.signals_sent_total = t.neutralizer_nth then
                t.armed.(ctx.Runtime.Ctx.pid) <- true
          | _ -> ())
  in
  let probe =
    Runtime.Ctx.subscriber ~scope:(Memory.Heap.scope heap) ~access
      ~handler_entry ?event ()
  in
  Runtime.Group.subscribe group probe;
  t.probe <- Some probe;
  (* Signal-delivery faults: interpose on the route.  Each send to a target
     gets an arrival ordinal; drop/delay windows match on it.  A delayed
     delivery is a [`Drop] here plus a later pending-flag set by the access
     hook above. *)
  if t.route_installed then begin
    Runtime.Group.set_signal_route group (fun ~from:_ ~target ->
        let ordinal = t.sigs_to.(target) in
        t.sigs_to.(target) <- ordinal + 1;
        let in_window (tg, first, count) =
          tg = target && ordinal >= first && ordinal < first + count
        in
        if List.exists in_window t.drops then begin
          t.dropped <- t.dropped + 1;
          `Drop
        end
        else
          match
            List.find_opt
              (fun (tg, first, count, _) -> in_window (tg, first, count))
              t.delays
          with
          | Some (_, _, _, by) ->
              t.delayed <- t.delayed + 1;
              t.pending.(target) <- (t.acc.(target) + by) :: t.pending.(target);
              `Drop
          | None -> `Deliver);
    group.Runtime.Group.signals_unreliable <- true
  end;
  (* The budget is headroom above what is already claimed: the engine arms
     after any prefill, so the cap binds the run under test, not setup. *)
  if !budget >= 0 then
    Memory.Heap.set_record_budget heap
      (Memory.Heap.budget_live heap + !budget);
  t

let uninstall t =
  match t.probe with
  | None -> ()
  | Some probe ->
      t.probe <- None;
      Runtime.Group.unsubscribe t.group probe;
      if t.route_installed then Runtime.Group.reset_signal_route t.group;
      Memory.Heap.set_record_budget t.heap t.saved_budget

let summary t =
  {
    crashes = t.crashes;
    handler_crashes = t.handler_crashes;
    signals_dropped = t.dropped;
    signals_delayed = t.delayed;
    signals_delivered_late = t.delivered_late;
    budget_refusals = Memory.Heap.budget_refusals t.heap - t.refusals_before;
  }

let fired t = List.rev t.log

(* ------------------------------------------------------------------ *)

module Fifo_oracle = struct
  (* Values are tagged (producer, seq): producer in the high bits, a
     per-producer sequence number starting at 1 in the low bits. *)
  let shift = 24
  let seq_mask = (1 lsl shift) - 1

  type t = {
    next_seq : int array;  (* per producer *)
    mutable deqs : (int * int) list;  (* consumer pid, value — newest first *)
  }

  let create ~nprocs = { next_seq = Array.make nprocs 1; deqs = [] }

  let next_value t ~pid =
    let seq = t.next_seq.(pid) in
    t.next_seq.(pid) <- seq + 1;
    (pid lsl shift) lor seq

  let dequeued t ~pid v = t.deqs <- (pid, v) :: t.deqs

  let producer v = v lsr shift
  let seq v = v land seq_mask

  let check t ~drained =
    let error = ref None in
    let fail msg = if !error = None then error := Some msg in
    (* Conservation: every consumed or drained value was enqueued exactly
       once.  Enqueues are exactly the minted values, so a value is valid
       iff its seq is in [1, next_seq). *)
    let seen = Hashtbl.create 4096 in
    let consume what v =
      if v = 0 then fail (Printf.sprintf "%s a zero (empty-queue) value" what)
      else begin
        let p = producer v in
        if p < 0 || p >= Array.length t.next_seq || seq v < 1
           || seq v >= t.next_seq.(p)
        then
          fail
            (Printf.sprintf "%s value %d that no producer enqueued" what v)
        else if Hashtbl.mem seen v then
          fail (Printf.sprintf "%s value %d twice (duplication)" what v)
        else Hashtbl.add seen v ()
      end
    in
    List.iter (fun (_, v) -> consume "dequeued" v) (List.rev t.deqs);
    List.iter (fun v -> consume "drained" v) drained;
    (* FIFO order: for each (consumer, producer) pair, sequence numbers
       strictly increase in dequeue order. *)
    let last = Hashtbl.create 64 in
    List.iter
      (fun (c, v) ->
        let key = (c, producer v) in
        (match Hashtbl.find_opt last key with
        | Some prev when seq v <= prev ->
            fail
              (Printf.sprintf
                 "consumer %d saw producer %d's seq %d after seq %d \
                  (FIFO inversion)"
                 c (producer v) (seq v) prev)
        | _ -> ());
        Hashtbl.replace last key (seq v))
      (List.rev t.deqs);
    !error
end
