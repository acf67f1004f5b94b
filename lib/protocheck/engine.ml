(** The protocheck analysis engine: an abstract interpreter over the SMR
    protocol event streams.

    The engine consumes one {!Memory.Smr_event} stream carrying both the
    lifecycle/protection/quiescence events the runtime sanitizer replays
    and the witness-level {!Reclaim.Intf.Protocol} events emitted by the
    typed Record Manager surface, and checks every path the {!Oracle}
    drives the structure down against the protocol rules:

    - E0 [Use_after_free]/[Double_free]: no access to, and no second free
      of, a freed incarnation (skipped under [Lenient], i.e. StackTrack,
      where reading reclaimed memory is the sanctioned abort mechanism).
    - E1 [Unprotected_access]: under a hazard-class scheme, access to a
      retired record requires a protection registered before the retire;
      in [strict] mode (fully-guarded structures only) {e every} access to
      a published record requires a live protection.
    - E2 [Unquiesced_access]: no access to a shared record outside a
      session ([Leave_q]..[Enter_q]) — the Fig. 5 operation-boundary
      discipline, with the quiescent preamble/postamble exemption for a
      record still private to its allocator.
    - E3 [Premature_free]: the free-side grace/hazard rules, replayed with
      the same retire-time snapshots as the sanitizer (open sessions for
      session-based schemes, quiescent-point counters for QSBR, pre-retire
      hazards for the scan-based family, recovery announcements always).
    - R4 [Retire_without_unlink]: a retire must consume an [unlinked]
      witness — a [Retire] with no pending {!Protocol.Unlink} for the
      record means the structure bypassed the typed surface.
    - R5 [Skipped_validation]: an [acquire] the oracle adversarially
      failed that a hazard-class scheme granted anyway means the scheme
      skipped its post-announce validation step (the broken-hp bug).

    Violations deduplicate per (kind, record) and carry a bounded trace of
    the events leading up to them — the per-path counterexample. *)

open Memory.Discipline

type config = {
  scheme : string;
  discipline : Memory.Discipline.t;
      (** the scheme's declared rules, shared with the runtime sanitizer *)
  strict : bool;
      (** every access to a published record needs a live protection; only
          set under [Hazard], and only sound for structures whose every
          dereference is guarded (list, queue) *)
}

(** The config for checking scheme [scheme] (declared [discipline]) on a
    structure that is ([strict]) or is not fully guarded. *)
let config ~scheme ~strict discipline =
  { scheme; discipline; strict = strict && discipline.access = Hazard }

type kind =
  | Use_after_free
  | Double_free
  | Unprotected_access
  | Unquiesced_access
  | Premature_free
  | Retire_without_unlink
  | Skipped_validation

let kind_name = function
  | Use_after_free -> "use-after-free"
  | Double_free -> "double-free"
  | Unprotected_access -> "unprotected-access"
  | Unquiesced_access -> "unquiesced-access"
  | Premature_free -> "premature-free"
  | Retire_without_unlink -> "retire-without-unlink"
  | Skipped_validation -> "skipped-validation"

type violation = {
  kind : kind;
  pid : int;
  seq : int;
  ptr : Memory.Ptr.t;
  detail : string;
  trace : string list;  (** the events leading up to the violation *)
}

(** A path exceeded its decision or event budget: the structure stopped
    making progress under the oracle's adversarial answers (e.g. HP's loss
    of lock-freedom on the BST, paper §3).  Not a protocol violation. *)
exception Diverged of string

(* Abstract record lifecycle.  [typed] distinguishes records announced
   through the typed surface (a [Protocol.Fresh] followed the allocation)
   from raw allocations, which are conservatively promoted to [Published]
   at their owner's next operation start. *)
type rstate = Fresh | Published | Root | Retired | Freed

type rinfo = {
  mutable state : rstate;
  mutable owner : int;
  mutable typed : bool;
  mutable unlink_pending : bool;
  mutable retire_seq : int;
  mutable grace : (int * int) array;
  mutable qsnap : int array;
}

type pstate = {
  mutable in_session : bool;
  mutable session : int;
  mutable qcount : int;
  hazards : (int, int list ref) Hashtbl.t;
  rprotects : (int, int list ref) Hashtbl.t;
}

let trace_cap = 48

type t = {
  config : config;
  records : (int, rinfo) Hashtbl.t;
  procs : pstate array;
  mutable seq : int;
  mutable viols : violation list;  (* newest first *)
  mutable nviols : int;
  seen : (kind * int, unit) Hashtbl.t;
  ring : (int * int * Memory.Smr_event.t) option array;  (* (seq, pid, ev) *)
  mutable rpos : int;
  event_budget : int;
}

let create ?(event_budget = 500_000) ~config ~nprocs () =
  {
    config;
    records = Hashtbl.create 1024;
    procs =
      Array.init nprocs (fun _ ->
          {
            in_session = false;
            session = 0;
            qcount = 0;
            hazards = Hashtbl.create 16;
            rprotects = Hashtbl.create 16;
          });
    seq = 0;
    viols = [];
    nviols = 0;
    seen = Hashtbl.create 64;
    ring = Array.make trace_cap None;
    rpos = 0;
    event_budget;
  }

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

let push_trace t pid ev =
  t.ring.(t.rpos) <- Some (t.seq, pid, ev);
  t.rpos <- (t.rpos + 1) mod trace_cap

let flag t ~pid kind ~ptr ~detail =
  let key = (kind, Memory.Ptr.unmark ptr) in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.add t.seen key ();
    t.nviols <- t.nviols + 1;
    t.viols <-
      { kind; pid; seq = t.seq; ptr; detail; trace = snapshot_trace t }
      :: t.viols
  end

(* Protection multisets, as in the sanitizer. *)
let push_prot tbl key seq =
  match Hashtbl.find_opt tbl key with
  | Some l -> l := seq :: !l
  | None -> Hashtbl.add tbl key (ref [ seq ])

let pop_prot tbl key =
  match Hashtbl.find_opt tbl key with
  | Some l -> (
      match !l with
      | [] | [ _ ] -> Hashtbl.remove tbl key
      | _ :: rest -> l := rest)
  | None -> ()

let holds_before tbl key ~retire =
  match Hashtbl.find_opt tbl key with
  | Some l -> List.exists (fun s -> s < retire) !l
  | None -> false

let holds_any tbl key = Hashtbl.mem tbl key

let fresh_rinfo ~owner ~state ~typed =
  {
    state;
    owner;
    typed;
    unlink_pending = false;
    retire_seq = -1;
    grace = [||];
    qsnap = [||];
  }

let record t key ~default =
  match Hashtbl.find_opt t.records key with
  | Some r -> r
  | None ->
      let r = fresh_rinfo ~owner:(-1) ~state:default ~typed:false in
      Hashtbl.replace t.records key r;
      r

(* E3: the free-side grace/hazard rules (sanitizer parity, minus the
   crash-awareness protocheck paths never need). *)
let check_free t ~pid r key ptr =
  (match t.config.discipline.free with
  | Skip -> ()
  | Grace_session ->
      Array.iter
        (fun (spid, session) ->
          let p = t.procs.(spid) in
          if p.in_session && p.session = session then
            flag t ~pid Premature_free ~ptr
              ~detail:
                (Printf.sprintf
                   "pid %d is still inside the session open at retire" spid))
        r.grace
  | Grace_qpoint ->
      Array.iteri
        (fun spid snap ->
          if t.procs.(spid).qcount = snap then
            flag t ~pid Premature_free ~ptr
              ~detail:
                (Printf.sprintf "pid %d passed no quiescent point since retire"
                   spid))
        r.qsnap
  | Hazard_scan ->
      Array.iteri
        (fun spid p ->
          if holds_before p.hazards key ~retire:r.retire_seq then
            flag t ~pid Premature_free ~ptr
              ~detail:
                (Printf.sprintf
                   "pid %d holds a protection registered before retire" spid))
        t.procs);
  if t.config.discipline.free <> Skip then
    Array.iteri
      (fun spid p ->
        if holds_any p.rprotects key then
          flag t ~pid Premature_free ~ptr
            ~detail:(Printf.sprintf "pid %d holds a recovery announcement" spid))
      t.procs

let on_free t ~pid key ptr ~via =
  match Hashtbl.find_opt t.records key with
  | None ->
      Hashtbl.replace t.records key
        (fresh_rinfo ~owner:(-1) ~state:Freed ~typed:false)
  | Some r -> (
      match r.state with
      | Fresh | Published | Root -> r.state <- Freed
      | Retired ->
          check_free t ~pid r key ptr;
          r.state <- Freed
      | Freed ->
          flag t ~pid Double_free ~ptr ~detail:(Printf.sprintf "second %s" via))

let check_access t ~pid key ptr =
  let ps = t.procs.(pid) in
  let r = record t key ~default:Published in
  match r.state with
  | Freed ->
      if t.config.discipline.access <> Lenient then
        flag t ~pid Use_after_free ~ptr ~detail:"access to freed record"
  | Root -> ()
  | Fresh when pid = r.owner -> ()
  | (Fresh | Published | Retired) as st ->
      if
        t.config.discipline.access <> Lenient
        && t.config.discipline.quiescence = Interval
        && not ps.in_session
      then
        flag t ~pid Unquiesced_access ~ptr
          ~detail:"access to a shared record outside a session";
      (match st with
      | Fresh -> r.state <- Published (* first non-owner access publishes *)
      | Retired ->
          if
            t.config.discipline.access = Hazard
            && not (holds_before ps.hazards key ~retire:r.retire_seq)
          then
            flag t ~pid Unprotected_access ~ptr
              ~detail:
                "access to retired record without a protection registered \
                 before retire"
      | Published ->
          if t.config.strict && not (holds_any ps.hazards key) then
            flag t ~pid Unprotected_access ~ptr
              ~detail:"access to shared record without a live protection"
      | Root | Freed -> ())

let on_retire t ~pid key ptr =
  let r = record t key ~default:Published in
  if not r.unlink_pending then
    flag t ~pid Retire_without_unlink ~ptr
      ~detail:"retire without an unlink witness for this record";
  r.unlink_pending <- false;
  (match r.state with
  | Fresh | Published | Root -> ()
  | Retired | Freed -> ());
  if r.state <> Freed then begin
    r.state <- Retired;
    r.retire_seq <- t.seq;
    match t.config.discipline.free with
    | Grace_session ->
        let open_sessions = ref [] in
        Array.iteri
          (fun i p ->
            if p.in_session then open_sessions := (i, p.session) :: !open_sessions)
          t.procs;
        r.grace <- Array.of_list !open_sessions
    | Grace_qpoint -> r.qsnap <- Array.map (fun p -> p.qcount) t.procs
    | Skip | Hazard_scan -> ()
  end

let bump t =
  t.seq <- t.seq + 1;
  if t.seq > t.event_budget then
    raise
      (Diverged
         (Printf.sprintf "event budget (%d) exhausted" t.event_budget))

(* The event callback, for a probe subscriber scoped to the analyzed
   heap. *)
let on_event t ctx (ev : Memory.Smr_event.t) =
  bump t;
  let pid = ctx.Runtime.Ctx.pid in
  push_trace t pid ev;
  let ps = t.procs.(pid) in
  match ev with
  | Alloc p | Pool_take p ->
      Hashtbl.replace t.records (Memory.Ptr.unmark p)
        (fresh_rinfo ~owner:pid ~state:Fresh ~typed:false)
  | Free p -> on_free t ~pid (Memory.Ptr.unmark p) p ~via:"arena free"
  | Pool_put p -> on_free t ~pid (Memory.Ptr.unmark p) p ~via:"pool put"
  | Access (p, _) -> check_access t ~pid (Memory.Ptr.unmark p) p
  | Retire p -> on_retire t ~pid (Memory.Ptr.unmark p) p
  | Protect p -> push_prot ps.hazards (Memory.Ptr.unmark p) t.seq
  | Unprotect p -> pop_prot ps.hazards (Memory.Ptr.unmark p)
  | Unprotect_all -> Hashtbl.reset ps.hazards
  | Rprotect p -> push_prot ps.rprotects (Memory.Ptr.unmark p) t.seq
  | Runprotect_all -> Hashtbl.reset ps.rprotects
  | Leave_q ->
      ps.session <- ps.session + 1;
      ps.in_session <- true;
      (* Raw allocations become reachable no later than their owner's next
         operation: promote them so unguarded traversals are checkable. *)
      Hashtbl.iter
        (fun _ r ->
          if r.state = Fresh && (not r.typed) && r.owner = pid then
            r.state <- Published)
        t.records
  | Enter_q ->
      ps.in_session <- false;
      ps.qcount <- ps.qcount + 1
  | Epoch_advance _ | Signal_sent _ | Sweep _ -> ()
  | Fresh p ->
      let r = record t (Memory.Ptr.unmark p) ~default:Fresh in
      r.typed <- true;
      r.owner <- pid
  | Publish p ->
      let r = record t (Memory.Ptr.unmark p) ~default:Published in
      if r.state = Fresh then r.state <- Published
  | Abandon _ -> () (* the pool/arena release event follows *)
  | Root p ->
      let r = record t (Memory.Ptr.unmark p) ~default:Root in
      r.state <- Root
  | Unlink p ->
      let r = record t (Memory.Ptr.unmark p) ~default:Published in
      r.unlink_pending <- true
  | Acquire { p; granted; adversary } ->
      if granted && adversary && t.config.discipline.access = Hazard then
        flag t ~pid Skipped_validation ~ptr:p
          ~detail:
            "protect granted although the validation was forced to fail: \
             the scheme skipped its post-announce verify"

let violations t = List.rev t.viols
let violation_count t = t.nviols
let has t kind = List.exists (fun v -> v.kind = kind) t.viols

let pp_violation fmt v =
  Format.fprintf fmt "[%s] pid %d, event #%d, record %s: %s" (kind_name v.kind)
    v.pid v.seq
    (Memory.Ptr.to_string v.ptr)
    v.detail
