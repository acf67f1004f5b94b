(** Shadow-state SMR sanitizer — implementation.

    The shadow state is keyed by unmarked pointer value.  Because the arena
    generation tag is part of the pointer, a recycled slot gets a fresh key
    per incarnation when it goes through the arena ([Alloc]/[Free]); a slot
    recycled through a {e pool} keeps its generation, so [Pool_take] resets
    the existing binding instead.  One deliberate blind spot follows: the
    sanitizer cannot distinguish two pool-reuse incarnations of the same
    record by pointer value alone, which is exactly the ABA the pools
    reintroduce — protections are therefore tracked as per-incarnation
    sequence numbers, not just membership.

    Soundness of the free checks (why real schemes never trip them):
    - [Grace_session]: the retire-time snapshot records every open session,
      including the retirer's own.  An epoch-based scheme frees a record
      only after every process has either announced a later epoch (which it
      can only do from [leave_qstate], i.e. a {e new} session) or declared
      quiescence ([enter_qstate], closing the session) — so by free time no
      snapshotted session is still open.
    - [Grace_qpoint]: QSBR frees a batch once every counter strictly
      exceeds the close-time snapshot, which is ≥ the retire-time snapshot
      replayed here.
    - [Hazard_scan]: only protections registered {e before} the retire
      block a free: a scan may legitimately miss an announcement made after
      it read the announcement array — that is the race the HP validation
      step exists for, and the racing protector's verify is what fails.
    - rprotect announcements block a free regardless of when they were made:
      DEBRA+'s signal handshake (signal, handler rprotects, ack, then scan)
      guarantees the scan sees every recovery announcement.

    The access rule adds the Fig. 5 operation boundary: under a scheme
    whose quiescence is an interval, a process touches a shared record only
    between its [Leave_q] and [Enter_q], or while it holds a recovery
    announcement on that record (DEBRA+'s recovery reads run quiescent,
    behind [rprotect]). *)

open Memory.Discipline

(* [Double_retire] and [Free_without_retire] were deleted as checks: the
   typestate surface ({!Reclaim.Intf.RECORD_MANAGER.Typed}) makes both
   unrepresentable — retire consumes a single-use [unlinked] witness, and a
   published record has no [fresh] witness left to [abandon] back to the
   allocator.  See DESIGN.md §12. *)
type kind =
  | Use_after_free
  | Unprotected_access
  | Premature_free
  | Double_free
  | Leak
  | Unquiesced_access

let kind_name = function
  | Use_after_free -> "use-after-free"
  | Unprotected_access -> "unprotected-access"
  | Premature_free -> "premature-free"
  | Double_free -> "double-free"
  | Leak -> "leak"
  | Unquiesced_access -> "unquiesced-access"

type violation = {
  kind : kind;
  pid : int;
  time : int;
  seq : int;
  ptr : Memory.Ptr.t;
  detail : string;
}

(* Shadow record lifecycle.  Fresh records become Published on the first
   access by a non-owner process (the only publication signal that cannot
   alias: packed update-words can look like pointers, so stores are not
   sniffed).  Fresh → Retired without publication is legal (operation
   descriptors, queue dummies). *)
type rstate = Fresh | Published | Retired | Freed

type rinfo = {
  mutable state : rstate;
  mutable owner : int;
  mutable alloc_seq : int;
  mutable retire_seq : int;
  mutable retire_pid : int;
  mutable grace : (int * int) array;  (* open (pid, session) at retire *)
  mutable qsnap : int array;  (* qcount vector at retire *)
}

type pstate = {
  mutable in_session : bool;
  mutable session : int;  (* bumped at every Leave_q *)
  mutable qcount : int;  (* bumped at every Enter_q *)
  hazards : (int, int list ref) Hashtbl.t;  (* key → protect seqs, newest first *)
  rprotects : (int, int list ref) Hashtbl.t;
  mutable retiring : bool;  (* its last event was a Retire *)
}

type t = {
  scheme : string;
  discipline : Memory.Discipline.t;
  heap : Memory.Heap.t;
  group : Runtime.Group.t;
  records : (int, rinfo) Hashtbl.t;
  procs : pstate array;
  mutable seq : int;
  mutable ledger : int;  (* retired, not yet freed *)
  mutable accesses : int;
  mutable viols : violation list;  (* newest first *)
  mutable nviols : int;
  seen : (kind * int, unit) Hashtbl.t;  (* de-dup per (kind, record) *)
}

let create ~scheme ~discipline ~heap ~group =
  {
    scheme;
    discipline;
    heap;
    group;
    records = Hashtbl.create 4096;
    procs =
      Array.init (Runtime.Group.nprocs group) (fun _ ->
          {
            in_session = false;
            session = 0;
            qcount = 0;
            hazards = Hashtbl.create 16;
            rprotects = Hashtbl.create 16;
            retiring = false;
          });
    seq = 0;
    ledger = 0;
    accesses = 0;
    viols = [];
    nviols = 0;
    seen = Hashtbl.create 64;
  }

let add t kind ~pid ~time ~ptr ~detail =
  let ptr = Memory.Ptr.unmark ptr in
  if not (Hashtbl.mem t.seen (kind, ptr)) then begin
    Hashtbl.add t.seen (kind, ptr) ();
    t.nviols <- t.nviols + 1;
    t.viols <- { kind; pid; time; seq = t.seq; ptr; detail } :: t.viols
  end

let flag t ctx kind ~ptr ~detail =
  add t kind ~pid:ctx.Runtime.Ctx.pid ~time:(Runtime.Ctx.now ctx) ~ptr ~detail

let provenance r =
  Printf.sprintf "alloc by pid %d at #%d%s" r.owner r.alloc_seq
    (if r.retire_seq >= 0 then
       Printf.sprintf ", retired by pid %d at #%d" r.retire_pid r.retire_seq
     else "")

let fresh_rinfo ~owner ~seq ~state =
  {
    state;
    owner;
    alloc_seq = seq;
    retire_seq = -1;
    retire_pid = -1;
    grace = [||];
    qsnap = [||];
  }

(* Per-process protection multisets. *)

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

(* Free-time grace/hazard checks (the record is Retired).

   Crash-awareness: a process the OS reports as crashed is excluded from
   every blocking condition.  Its shadow session stays open and its hazard
   multiset is frozen forever, but a dead process performs no further
   access, so freeing a record only it could have reached is safe — this is
   precisely the fact DEBRA+ exploits when [pthread_kill] returns [ESRCH].
   Schemes that conservatively keep such records anyway (HP, RC: the dead
   process' announcements persist in shared memory) simply never free them,
   so the relaxation cannot mask a real bug in those schemes. *)
let check_free t ctx r key =
  let ptr = key in
  let dead pid = Runtime.Group.is_crashed t.group pid in
  (match t.discipline.free with
  | Skip -> ()
  | Grace_session ->
      Array.iter
        (fun (pid, session) ->
          let p = t.procs.(pid) in
          if (not (dead pid)) && p.in_session && p.session = session then
            flag t ctx Premature_free ~ptr
              ~detail:
                (Printf.sprintf
                   "pid %d is still inside the session open at retire (%s)" pid
                   (provenance r)))
        r.grace
  | Grace_qpoint ->
      Array.iteri
        (fun pid snap ->
          if (not (dead pid)) && t.procs.(pid).qcount = snap then
            flag t ctx Premature_free ~ptr
              ~detail:
                (Printf.sprintf
                   "pid %d passed no quiescent point since retire (%s)" pid
                   (provenance r)))
        r.qsnap
  | Hazard_scan ->
      Array.iteri
        (fun pid p ->
          if (not (dead pid)) && holds_before p.hazards key ~retire:r.retire_seq
          then
            flag t ctx Premature_free ~ptr
              ~detail:
                (Printf.sprintf
                   "pid %d holds a protection registered before retire (%s)"
                   pid (provenance r)))
        t.procs);
  if t.discipline.free <> Skip then
    Array.iteri
      (fun pid p ->
        if (not (dead pid)) && holds_any p.rprotects key then
          flag t ctx Premature_free ~ptr
            ~detail:
              (Printf.sprintf "pid %d holds a recovery announcement (%s)" pid
                 (provenance r)))
      t.procs

(* A record left limbo back to its allocator: Free (through the arena,
   generation bumped) or Pool_put (generation kept). *)
let on_free t ctx key ~via =
  match Hashtbl.find_opt t.records key with
  | None ->
      (* Born before the sanitizer attached; record the death silently. *)
      Hashtbl.replace t.records key (fresh_rinfo ~owner:(-1) ~seq:t.seq ~state:Freed)
  | Some r -> (
      match r.state with
      | Fresh -> r.state <- Freed (* unpublished dealloc, always legal *)
      | Published ->
          (* Freeing a published record without retiring it is untypeable:
             [Typed.abandon] needs the fresh witness that publication spent.
             Record the death without a check. *)
          r.state <- Freed
      | Retired ->
          check_free t ctx r key;
          if t.discipline.track_limbo then t.ledger <- t.ledger - 1;
          r.state <- Freed
      | Freed ->
          flag t ctx Double_free ~ptr:key
            ~detail:(Printf.sprintf "second %s (%s)" via (provenance r)))

let on_event t ctx (ev : Memory.Smr_event.t) =
  t.seq <- t.seq + 1;
  let pid = ctx.Runtime.Ctx.pid in
  let ps = t.procs.(pid) in
  ps.retiring <- (match ev with Retire _ -> true | _ -> false);
  match ev with
  | Alloc p | Pool_take p ->
      let key = Memory.Ptr.unmark p in
      Hashtbl.replace t.records key
        (fresh_rinfo ~owner:pid ~seq:t.seq ~state:Fresh)
  | Free p -> on_free t ctx (Memory.Ptr.unmark p) ~via:"arena free"
  | Pool_put p -> on_free t ctx (Memory.Ptr.unmark p) ~via:"pool put"
  | Access (p, _) ->
      let key = Memory.Ptr.unmark p in
      let shared =
        match Hashtbl.find_opt t.records key with
        | None ->
            (* Born before attach: assume live and published. *)
            Hashtbl.replace t.records key
              (fresh_rinfo ~owner:(-1) ~seq:t.seq ~state:Published);
            true
        | Some r -> (
            match r.state with
            | Fresh when pid <> r.owner ->
                r.state <- Published;
                true
            | Fresh -> false
            | Published -> true
            | Retired ->
                if
                  t.discipline.access = Hazard
                  && not (holds_before ps.hazards key ~retire:r.retire_seq)
                then
                  flag t ctx Unprotected_access ~ptr:key
                    ~detail:
                      (Printf.sprintf
                         "access to retired record without a protection \
                          registered before retire (%s)"
                         (provenance r));
                true
            | Freed ->
                if t.discipline.access <> Lenient then
                  flag t ctx Use_after_free ~ptr:key
                    ~detail:
                      (Printf.sprintf "access to freed record (%s)"
                         (provenance r));
                false)
      in
      if
        shared && t.discipline.access <> Lenient
        && t.discipline.quiescence = Interval
        && (not ps.in_session)
        && not (holds_any ps.rprotects key)
      then
        flag t ctx Unquiesced_access ~ptr:key
          ~detail:"access to a shared record outside a session"
  | Retire p -> (
      let key = Memory.Ptr.unmark p in
      let r =
        match Hashtbl.find_opt t.records key with
        | Some r -> r
        | None ->
            let r = fresh_rinfo ~owner:(-1) ~seq:t.seq ~state:Published in
            Hashtbl.replace t.records key r;
            r
      in
      match r.state with
      | Retired | Freed ->
          (* A second retire of the same incarnation is untypeable: the
             [unlinked] witness is consumed by the first [Typed.retire].
             Keep the shadow state as-is. *)
          ()
      | Fresh | Published ->
          r.state <- Retired;
          r.retire_seq <- t.seq;
          r.retire_pid <- pid;
          if t.discipline.track_limbo then t.ledger <- t.ledger + 1;
          (match t.discipline.free with
          | Grace_session ->
              let open_sessions = ref [] in
              Array.iteri
                (fun i p ->
                  if p.in_session then
                    open_sessions := (i, p.session) :: !open_sessions)
                t.procs;
              r.grace <- Array.of_list !open_sessions
          | Grace_qpoint ->
              r.qsnap <- Array.map (fun p -> p.qcount) t.procs
          | Skip | Hazard_scan -> ()))
  | Protect p -> push_prot ps.hazards (Memory.Ptr.unmark p) t.seq
  | Unprotect p -> pop_prot ps.hazards (Memory.Ptr.unmark p)
  | Unprotect_all -> Hashtbl.reset ps.hazards
  | Rprotect p -> push_prot ps.rprotects (Memory.Ptr.unmark p) t.seq
  | Runprotect_all -> Hashtbl.reset ps.rprotects
  | Leave_q ->
      ps.session <- ps.session + 1;
      ps.in_session <- true
  | Enter_q ->
      ps.in_session <- false;
      ps.qcount <- ps.qcount + 1
  | Epoch_advance _ | Signal_sent _ | Sweep _ ->
      (* Reclamation control plane: no shadow state transition.  Soundness
         is judged from the lifecycle, protection and session events
         alone. *)
      ()

let with_checks t f =
  let s =
    Runtime.Ctx.subscriber ~scope:(Memory.Heap.scope t.heap)
      ~event:(on_event t)
      ~access:(fun _ ~line:_ _ -> t.accesses <- t.accesses + 1)
      ()
  in
  Runtime.Group.subscribe t.group s;
  Fun.protect ~finally:(fun () -> Runtime.Group.unsubscribe t.group s) f

(* A process that crashed after announcing a retire but before its limbo
   insertion completed (EBR's shared bag takes accesses to push) took that
   record with it: the ledger counts it, no limbo container holds it.  Its
   last event is then that Retire. *)
let leak_check t ~limbo_size =
  let lost = ref 0 in
  Array.iteri
    (fun pid p ->
      if p.retiring && Runtime.Group.is_crashed t.group pid then incr lost)
    t.procs;
  if
    t.discipline.track_limbo
    && not (t.ledger >= limbo_size && t.ledger - limbo_size <= !lost)
  then begin
    t.seq <- t.seq + 1;
    add t Leak ~pid:0 ~time:0 ~ptr:Memory.Ptr.null
      ~detail:
        (Printf.sprintf
           "shadow ledger says %d records in limbo, reclaimer reports %d"
           t.ledger limbo_size)
  end

let violations t = List.rev t.viols
let violation_count t = t.nviols
let has t kind = List.exists (fun v -> v.kind = kind) t.viols
let retired_unfreed t = t.ledger
let accesses_checked t = t.accesses

let pp_violation fmt v =
  Format.fprintf fmt "[%s] pid %d, t=%d, event #%d, record %s: %s"
    (kind_name v.kind) v.pid v.time v.seq
    (Memory.Ptr.to_string v.ptr)
    v.detail

let report t =
  if t.nviols = 0 then ""
  else
    let buf = Buffer.create 256 in
    let fmt = Format.formatter_of_buffer buf in
    Format.fprintf fmt "%d violation(s) under scheme %s:@." t.nviols t.scheme;
    List.iter (fun v -> Format.fprintf fmt "  %a@." pp_violation v) (violations t);
    Format.pp_print_flush fmt ();
    Buffer.contents buf
