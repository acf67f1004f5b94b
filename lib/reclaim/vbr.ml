(** Version-based reclamation (Sheffi, Herlihy & Petrank, VBR; PPoPP'21),
    mapped onto this harness's tagged-pointer arenas.

    VBR attaches a version to every record and to a coarse global clock;
    readers never announce anything.  A dereference is preceded by a
    re-validation of the record's version against the version remembered
    when the pointer was read: if the record was reclaimed (and possibly
    reused) in between, the versions disagree and the operation rolls
    back to a checkpoint.  Retired records are handed back to the
    allocator {e immediately} (per retired block here, to keep the paper's
    amortization) — there is no grace period, no announcement scan, and
    reclamation can never be blocked by a stalled or crashed process.

    The mapping onto this codebase is direct, which is why the ROADMAP
    calls VBR a natural fit: the arena's per-slot {e generation counters}
    are exactly VBR's versions.  A tagged pointer carries the generation
    it was created under; {!Memory.Arena.is_valid} is the version
    re-validation; {!Memory.Arena.release} (reached through
    {!Alloc.Recycle} + {!Pool.Direct}) is the version bump at reclaim
    time.  A stale access that slips past [protect] raises
    {!Memory.Arena.Use_after_free}, which the data structure treats as
    VBR's checkpoint rollback ([sandboxed = true], the same recovery path
    StackTrack's transaction aborts use in [run_op]).

    Pairing: VBR {e must} reuse through the arena — registered with
    [~reuse:Arena] ({!Registry.reuse}), i.e. the [Recycle] allocator
    behind the [Direct] pool — the recycling allocator routes every free
    through the arena so the
    generation (= version) advances on each reuse.  A generation-preserving
    pool ([Pool.Shared]) would reintroduce exactly the ABA the versions
    exist to exclude. *)

let name = "vbr"

(* Frees without any grace period and relies on version re-validation: a
   read of reclaimed memory is the checkpoint rollback, not a violation. *)
let discipline = Memory.Discipline.(make Lenient Skip)

(* No grace period: a block of retired records goes back the moment it
   fills, so each process holds under one block per record type whatever
   any other process does (VBR is robust by construction). *)
let robustness =
  Intf.Robustness.Bounded
    (fun ~n params ->
      n * Memory.Ptr.max_arenas * params.Intf.Params.block_capacity)

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  type local = { bags : Bag.Blockbag.t array (* per arena, retired records *) }

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    version : int Runtime.Svar.t;
        (* coarse global version clock: bumped once per reclaimed batch;
           per-record versions live in the arena generation counters *)
    locals : local array;
  }

  let name = name
  let discipline = discipline
  let supports_crash_recovery = false
  let allows_retired_traversal = false
  let sandboxed = true

  let create env pool =
    let n = Intf.Env.nprocs env in
    {
      env;
      pool;
      version = Runtime.Svar.make 1;
      locals =
        Array.init n (fun pid ->
            {
              bags =
                Array.init Memory.Ptr.max_arenas (fun _ ->
                    Bag.Blockbag.create env.Intf.Env.block_pools.(pid));
            });
    }

  (* Operation boundaries are checkpoints, not announcements: nothing is
     published, so they cost nothing but the event. *)
  let leave_qstate t ctx = Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q
  let enter_qstate t ctx = Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q
  let is_quiescent _t _ctx = false

  (* The heart of VBR: no announcement, no fence — re-validate the version
     carried by the tagged pointer against the record's current one, then
     run the caller's structural check.  A failed validation means the
     record was reclaimed since the pointer was read; the caller restarts
     from its checkpoint. *)
  let protect t ctx p ~verify =
    let p = Memory.Ptr.unmark p in
    (* one version read + compare *)
    Runtime.Ctx.work ctx 2;
    let arena = Memory.Heap.arena_of t.env.Intf.Env.heap p in
    Memory.Arena.is_valid arena p
    && verify ()
    && begin
         if Runtime.Ctx.observed ctx then
           Intf.Env.emit t.env ctx (Memory.Smr_event.Protect p);
         true
       end

  let unprotect t ctx p =
    if Runtime.Ctx.observed ctx then
      Intf.Env.emit t.env ctx
        (Memory.Smr_event.Unprotect (Memory.Ptr.unmark p))

  let unprotect_all t ctx =
    Intf.Env.emit t.env ctx Memory.Smr_event.Unprotect_all

  (* Protection is not a state VBR tracks — validity of the version is the
     only meaningful question. *)
  let is_protected t _ctx p =
    let p = Memory.Ptr.unmark p in
    Memory.Arena.is_valid (Memory.Heap.arena_of t.env.Intf.Env.heap p) p

  (* Hand every full block of retired records straight back to the pool:
     with the Recycle/Direct pairing each record passes through the arena,
     which bumps its generation — the version bump that invalidates every
     stale pointer still pointing at the slot. *)
  let reclaim_full_blocks t ctx l =
    let released = ref 0 in
    Array.iter
      (fun bag ->
        released :=
          !released
          + Bag.Blockbag.move_all_full_blocks bag ~into:(fun blk ->
                P.release_block t.pool ctx blk))
      l.bags;
    if !released > 0 then begin
      let v = Runtime.Svar.faa ctx t.version 1 in
      Intf.Env.emit t.env ctx (Memory.Smr_event.Epoch_advance (v + 1));
      Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep !released)
    end;
    !released

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    Runtime.Ctx.work ctx 2;
    let p = Memory.Ptr.unmark p in
    Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let bag = l.bags.(Memory.Ptr.arena_id p) in
    Bag.Blockbag.add bag p;
    (* No grace period: as soon as a block fills, it is reclaimed.  Limbo
       is bounded by n * arenas * (B - 1) regardless of what any other
       process does — VBR is robust by construction.  (The chain counts
       the always-present partial head block; > 1 means a full block sits
       behind it.) *)
    if Bag.Blockbag.size_in_blocks bag > 1 then
      ignore (reclaim_full_blocks t ctx l)

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false

  let local_limbo l =
    Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) 0 l.bags

  let limbo_per_proc t = Array.map local_limbo t.locals
  let limbo_size t = Array.fold_left (fun acc l -> acc + local_limbo l) 0 t.locals

  (* Readers make no announcements, so nothing can lag the version clock. *)
  let epoch_lag t = Array.make (Array.length t.locals) 0

  let flush t ctx =
    Array.iter
      (fun l ->
        Array.iter
          (fun b ->
            ignore
              (Scan_util.flush_bag ctx b
                 ~keep:(fun _ -> false)
                 ~release:(fun ctx p -> P.release t.pool ctx p)
                 ~release_block:(fun blk -> P.release_block t.pool ctx blk)))
          l.bags)
      t.locals

  (* Allocation-failure path: drain our own partial blocks too.  Nothing
     a peer does — stall, crash, stuck signal handler — can make this
     return 0 while we hold any retired record. *)
  let emergency_reclaim t ctx =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let released = ref 0 in
    Array.iter
      (fun b ->
        released :=
          !released
          + Scan_util.flush_bag ctx b
              ~keep:(fun _ -> false)
              ~release:(fun ctx p -> P.release t.pool ctx p)
              ~release_block:(fun blk -> P.release_block t.pool ctx blk))
      l.bags;
    if !released > 0 then begin
      let v = Runtime.Svar.faa ctx t.version 1 in
      Intf.Env.emit t.env ctx (Memory.Smr_event.Epoch_advance (v + 1));
      Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep !released)
    end;
    !released
end
