(** The protocheck analysis engine: the witness layer over the sanitizer's
    shadow state machine.

    The engine consumes one {!Memory.Smr_event} stream carrying both the
    lifecycle/protection/quiescence events and the witness-level
    {!Reclaim.Intf.Protocol} events emitted by the typed Record Manager
    surface.  Every event goes to a {!Sanitizer.t}, which keeps the record
    and process shadow and applies the lifecycle rules:

    - E0 [Use_after_free]/[Double_free]: no access to, and no second free
      of, a freed incarnation (skipped under [Lenient], i.e. StackTrack,
      where reading reclaimed memory is the sanctioned abort mechanism).
    - E1 [Unprotected_access]: under a hazard-class scheme, access to a
      retired record requires a protection registered before the retire.
    - E3 [Premature_free]: the free-side grace/hazard rules (open sessions,
      quiescent points, pre-retire hazards, recovery announcements; a
      crashed process blocks nothing).

    On top of it the engine checks what only the witness stream can show,
    on every path the {!Oracle} drives the structure down:

    - strict E1: in [strict] mode (fully-guarded structures only) {e every}
      access to a published record requires a live protection.
    - E2 [Unquiesced_access]: no access to a shared record outside a
      session ([Leave_q]..[Enter_q]) — the Fig. 5 operation-boundary
      discipline, with the quiescent preamble/postamble exemption for a
      record still private to its allocator.
    - R4 [Retire_without_unlink]: a retire must consume an [unlinked]
      witness — a [Retire] with no pending {!Protocol.Unlink} for the
      record means the structure bypassed the typed surface.
    - R5 [Skipped_validation]: an [acquire] the oracle adversarially
      failed that a hazard-class scheme granted anyway means the scheme
      skipped its post-announce validation step (the broken-hp bug).

    Every violation recorded during an event, by either layer, carries a
    bounded trace of the events leading up to it — the per-path
    counterexample. *)

open Memory.Discipline

type config = {
  discipline : Memory.Discipline.t;
      (** the scheme's declared rules, shared with the runtime sanitizer *)
  strict : bool;
      (** every access to a published record needs a live protection; only
          set under [Hazard], and only sound for structures whose every
          dereference is guarded (list, queue) *)
}

(** The config for checking a scheme with the declared [discipline] on a
    structure that is ([strict]) or is not fully guarded. *)
let config ~strict discipline =
  { discipline; strict = strict && discipline.access = Hazard }

type violation = {
  violation : Sanitizer.violation;
  trace : string list;  (** the events leading up to the violation *)
}

(** A path exceeded its decision or event budget: the structure stopped
    making progress under the oracle's adversarial answers (e.g. HP's loss
    of lock-freedom on the BST, paper §3).  Not a protocol violation. *)
exception Diverged of string

let trace_cap = 48

type t = {
  config : config;
  shadow : Sanitizer.t;
  (* Witness bookkeeping, keyed by unmarked pointer.  A binding lives until
     the record's next incarnation ([Alloc]/[Pool_take]). *)
  roots : (int, unit) Hashtbl.t;  (* permanent sentinels: never checked *)
  unlinked : (int, unit) Hashtbl.t;  (* an [Unlink] awaits its [Retire] *)
  raw : (int, int) Hashtbl.t;
      (* raw allocation → owner: allocated with no [Fresh] witness and not
         yet promoted *)
  mutable events : int;
  ring : (int * int * Memory.Smr_event.t) option array;  (* (seq, pid, ev) *)
  mutable rpos : int;
  traces : (int, string list) Hashtbl.t;  (* violation index → trace *)
  event_budget : int;
}

let create ?(event_budget = 500_000) ~config ~heap ~group () =
  {
    config;
    (* The name only heads [Sanitizer.report], which protocheck never
       prints: its reports are per cell. *)
    shadow =
      Sanitizer.create ~scheme:"protocheck" ~discipline:config.discipline
        ~heap ~group;
    roots = Hashtbl.create 16;
    unlinked = Hashtbl.create 64;
    raw = Hashtbl.create 64;
    events = 0;
    ring = Array.make trace_cap None;
    rpos = 0;
    traces = Hashtbl.create 16;
    event_budget;
  }

let shadow t = t.shadow

let describe_event ev =
  let p fmt ptr = Printf.sprintf fmt (Memory.Ptr.to_string ptr) in
  match ev with
  | Memory.Smr_event.Alloc ptr -> p "alloc %s" ptr
  | Free ptr -> p "free %s" ptr
  | Access (ptr, Memory.Smr_event.Read) -> p "read %s" ptr
  | Access (ptr, Write) -> p "write %s" ptr
  | Access (ptr, Cas) -> p "cas %s" ptr
  | Pool_put ptr -> p "pool-put %s" ptr
  | Pool_take ptr -> p "pool-take %s" ptr
  | Retire ptr -> p "retire %s" ptr
  | Protect ptr -> p "protect %s" ptr
  | Unprotect ptr -> p "unprotect %s" ptr
  | Unprotect_all -> "unprotect-all"
  | Enter_q -> "enter-qstate"
  | Leave_q -> "leave-qstate"
  | Rprotect ptr -> p "rprotect %s" ptr
  | Runprotect_all -> "runprotect-all"
  | Epoch_advance e -> Printf.sprintf "epoch-advance %d" e
  | Signal_sent target -> Printf.sprintf "signal-sent %d" target
  | Sweep n -> Printf.sprintf "sweep %d" n
  | Fresh ptr -> p "FRESH %s" ptr
  | Publish ptr -> p "PUBLISH %s" ptr
  | Abandon ptr -> p "ABANDON %s" ptr
  | Root ptr -> p "ROOT %s" ptr
  | Unlink ptr -> p "UNLINK %s" ptr
  | Acquire { p = ptr; granted; adversary } ->
      Printf.sprintf "ACQUIRE %s granted=%b adversary=%b"
        (Memory.Ptr.to_string ptr)
        granted adversary

let snapshot_trace t =
  let out = ref [] in
  for i = trace_cap - 1 downto 0 do
    match t.ring.((t.rpos + trace_cap - 1 - i) mod trace_cap) with
    | None -> ()
    | Some (seq, pid, e) ->
        out :=
          Printf.sprintf "#%d pid%d %s" seq pid (describe_event e) :: !out
  done;
  List.rev !out

(* Strict E1 and E2 on an access, after the shadow has seen it.  [pre] is
   the record's state before the access: a [Fresh] record is shared only
   if the access published it (a non-owner touched it). *)
let check_access t ctx p ~pre =
  let pid = ctx.Runtime.Ctx.pid in
  let d = t.config.discipline in
  let shared =
    match pre with
    | Sanitizer.Freed -> false
    | Fresh -> Sanitizer.state t.shadow p <> Fresh
    | Published | Retired -> true
  in
  if shared && not (Hashtbl.mem t.roots p) then begin
    if
      d.access <> Lenient && d.quiescence = Interval
      && not (Sanitizer.in_session t.shadow ~pid)
    then
      Sanitizer.flag t.shadow ctx Unquiesced_access ~ptr:p
        ~detail:"access to a shared record outside a session";
    if
      pre = Published && t.config.strict
      && not (Sanitizer.protected t.shadow ~pid p)
    then
      Sanitizer.flag t.shadow ctx Unprotected_access ~ptr:p
        ~detail:"access to shared record without a live protection"
  end

(* The witness rules and bookkeeping, after the shadow has seen [ev]. *)
let on_witness t ctx (ev : Memory.Smr_event.t) =
  let pid = ctx.Runtime.Ctx.pid in
  let key = Memory.Ptr.unmark in
  match ev with
  | Alloc p | Pool_take p ->
      let p = key p in
      Hashtbl.remove t.roots p;
      Hashtbl.remove t.unlinked p;
      Hashtbl.replace t.raw p pid
  | Free p | Pool_put p -> Hashtbl.remove t.roots (key p)
  | Retire p ->
      let p = key p in
      if not (Hashtbl.mem t.unlinked p) then
        Sanitizer.flag t.shadow ctx Retire_without_unlink ~ptr:p
          ~detail:"retire without an unlink witness for this record";
      Hashtbl.remove t.unlinked p;
      Hashtbl.remove t.roots p
  | Leave_q ->
      (* Raw allocations become reachable no later than their owner's next
         operation: promote them so unguarded traversals are checkable. *)
      Hashtbl.filter_map_inplace
        (fun p owner ->
          if owner <> pid then Some owner
          else (
            Sanitizer.publish t.shadow p;
            None))
        t.raw
  | Fresh p -> Hashtbl.remove t.raw (key p)
  | Publish p -> Sanitizer.publish t.shadow p
  | Root p -> Hashtbl.replace t.roots (key p) ()
  | Unlink p -> Hashtbl.replace t.unlinked (key p) ()
  | Acquire { p; granted; adversary } ->
      if granted && adversary && t.config.discipline.access = Hazard then
        Sanitizer.flag t.shadow ctx Skipped_validation ~ptr:p
          ~detail:
            "protect granted although the validation was forced to fail: \
             the scheme skipped its post-announce verify"
  | Access _ | Protect _ | Unprotect _ | Unprotect_all | Rprotect _
  | Runprotect_all | Enter_q | Epoch_advance _ | Signal_sent _ | Sweep _
  | Abandon _ ->
      ()

(* The event callback, for a probe subscriber scoped to the analyzed
   heap. *)
let on_event t ctx (ev : Memory.Smr_event.t) =
  t.events <- t.events + 1;
  if t.events > t.event_budget then
    raise
      (Diverged (Printf.sprintf "event budget (%d) exhausted" t.event_budget));
  t.ring.(t.rpos) <- Some (t.events, ctx.Runtime.Ctx.pid, ev);
  t.rpos <- (t.rpos + 1) mod trace_cap;
  let before = Sanitizer.violation_count t.shadow in
  (match ev with
  | Access (p, _) ->
      let p = Memory.Ptr.unmark p in
      let pre = Sanitizer.state t.shadow p in
      Sanitizer.on_event t.shadow ctx ev;
      check_access t ctx p ~pre
  | _ ->
      Sanitizer.on_event t.shadow ctx ev;
      on_witness t ctx ev);
  let after = Sanitizer.violation_count t.shadow in
  if after > before then begin
    let trace = snapshot_trace t in
    for i = before to after - 1 do
      Hashtbl.replace t.traces i trace
    done
  end

let violations t =
  List.mapi
    (fun i violation ->
      {
        violation;
        trace = Option.value ~default:[] (Hashtbl.find_opt t.traces i);
      })
    (Sanitizer.violations t.shadow)
