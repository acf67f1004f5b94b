(** StackTrack-style reclamation (Alistarh, Eugster, Herlihy, Matveev,
    Shavit, EuroSys'14) (paper §3).  There is no transaction layer: a
    segment is a calibrated per-segment cost, and
    {!Memory.Arena.Use_after_free} stands in for the abort.

    The original splits every operation into short hardware transactions
    ("segments"); pointers live in registers during a segment and are
    announced as hazard pointers only when a segment commits, so the
    per-record fences of HP are replaced by a per-segment commit.  A
    transaction that touches memory reclaimed mid-segment simply aborts and
    the segment retries.

    In this reproduction, segments are driven by [protect] calls: every
    [st_segment_accesses]-th newly-reached record closes a segment — the
    process pays the transaction begin/commit cost and publishes its live
    pointer set to its announcement row.  Between segment boundaries the
    pointers are unpublished, exactly like register-resident pointers inside
    a hardware transaction; if a scan frees one of them, the subsequent
    access raises {!Memory.Arena.Use_after_free}, which the data structure
    treats as the transaction abort ([sandboxed = true]) and retries.  This
    preserves StackTrack's cost profile (a few transactions per operation,
    announcements batched per segment, aborts on concurrent reclamation) and
    its documented inapplicability to structures that traverse
    retired-to-retired pointers.

    Reclamation is ScanAndFree: a private buffer of retired records,
    scanned against all announcement rows past a threshold. *)

let name = "stacktrack"

(* Reading reclaimed memory is the transaction-abort mechanism, and a scan
   cannot see other processes' unpublished register pointers. *)
let discipline = Memory.Discipline.(make Lenient Skip)

(* As HP: a stopped process pins at most its k published pointers, and
   every process scans at [max(2B, f·n·k)] retired records. *)
let robustness =
  Intf.Robustness.Bounded
    (fun ~n params ->
      let k = params.Intf.Params.hp_slots in
      n
      * max
          (2 * params.Intf.Params.block_capacity)
          (max 1 params.Intf.Params.hp_retire_factor * n * k))

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  type local = {
    mirror : int array;  (* live pointer set (register file of the segment) *)
    announced : int array;  (* what our row currently publishes *)
    bags : Bag.Blockbag.t array;
    mutable seg_fill : int;  (* records reached in the current segment *)
  }

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    rows : Runtime.Shared_array.t array;
    locals : local array;
    scanning : Bag.Hash_set.t array;
    retire_threshold : int;
    segment_accesses : int;
    k : int;
    mutable segments : int;  (* committed segments, for reporting *)
  }

  let name = name
  let discipline = discipline
  let supports_crash_recovery = false
  let allows_retired_traversal = false
  let sandboxed = true

  let create env pool =
    let n = Intf.Env.nprocs env in
    let params = env.Intf.Env.params in
    let k = params.Intf.Params.hp_slots in
    let arenas = Memory.Ptr.max_arenas in
    {
      env;
      pool;
      rows = Runtime.Shared_array.rows n k;
      locals =
        Array.init n (fun pid ->
            {
              mirror = Array.make k 0;
              announced = Array.make k 0;
              bags =
                Array.init arenas (fun _ ->
                    Bag.Blockbag.create env.Intf.Env.block_pools.(pid));
              seg_fill = 0;
            });
      scanning = Array.init n (fun _ -> Bag.Hash_set.create ~expected:(n * k));
      retire_threshold =
        max
          (2 * params.Intf.Params.block_capacity)
          (params.Intf.Params.hp_retire_factor * n * k);
      segment_accesses = params.Intf.Params.st_segment_accesses;
      k;
      segments = 0;
    }

  (* Close the current segment: pay the transaction boundary — commit of
     the old segment, begin of the next, and the checkpointing of local
     state (registers/stack) the original performs so the next segment can
     resume or fall back — then publish the live pointer set (only slots
     that changed are written).  The 440-cycle figure is calibrated so the
     measured DEBRA-vs-ST gap lands in the band the paper reports
     (RTM begin+commit plus the checkpoint copy); see EXPERIMENTS.md. *)
  let commit_segment t ctx =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    Runtime.Ctx.work ctx 440;
    for i = 0 to t.k - 1 do
      if l.announced.(i) <> l.mirror.(i) then begin
        l.announced.(i) <- l.mirror.(i);
        Runtime.Shared_array.set ctx t.rows.(ctx.Runtime.Ctx.pid) i l.mirror.(i)
      end
    done;
    l.seg_fill <- 0;
    t.segments <- t.segments + 1

  let leave_qstate t ctx =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    l.seg_fill <- 0;
    Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q;
    Runtime.Ctx.work ctx 120 (* first segment begin + checkpoint *)

  let unprotect_all t ctx =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    Intf.Env.emit t.env ctx Memory.Smr_event.Unprotect_all;
    Array.fill l.mirror 0 t.k 0

  let enter_qstate t ctx =
    (* Operation done: clear the register file and the published row. *)
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    Intf.Env.emit t.env ctx Memory.Smr_event.Unprotect_all;
    Array.fill l.mirror 0 t.k 0;
    commit_segment t ctx;
    Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q

  let is_quiescent _t _ctx = false

  let protect t ctx p ~verify:_ =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let p = Memory.Ptr.unmark p in
    let i = Scan_util.find_slot l.mirror 0 in
    if i < 0 then
      invalid_arg "Stacktrack.protect: out of pointer slots (raise hp_slots)";
    l.mirror.(i) <- p;
    if Runtime.Ctx.observed ctx then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Protect p);
    l.seg_fill <- l.seg_fill + 1;
    (* the runtime check deciding whether to start a new transaction *)
    Runtime.Ctx.work ctx 12;
    if l.seg_fill >= t.segment_accesses then commit_segment t ctx;
    true

  let unprotect t ctx p =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let p = Memory.Ptr.unmark p in
    let i = Scan_util.find_slot l.mirror p in
    if i >= 0 then begin
      if Runtime.Ctx.observed ctx then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Unprotect p);
      l.mirror.(i) <- 0
    end

  let is_protected t ctx p =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let p = Memory.Ptr.unmark p in
    Array.exists (fun s -> s = p) l.mirror

  (* ScanAndFree. *)
  let scan t ctx l =
    let scanning = t.scanning.(ctx.Runtime.Ctx.pid) in
    Scan_util.collect_announcements ctx ~into:scanning
      ~nprocs:(Intf.Env.nprocs t.env)
      ~row:(fun other -> t.rows.(other))
      ~count:(fun _ _ -> t.k);
    (* Our own live pointers may be unpublished mid-segment: include them. *)
    Array.iter (fun r -> if r <> 0 then Bag.Hash_set.insert scanning r) l.mirror;
    let released = ref 0 in
    Array.iter
      (fun bag ->
        released :=
          !released
          + Scan_util.partition_and_release ctx bag ~protected:scanning
              ~release_block:(fun b -> P.release_block t.pool ctx b))
      l.bags;
    if !released > 0 then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep !released)

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    Runtime.Ctx.work ctx 2;
    let p = Memory.Ptr.unmark p in
    Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    Bag.Blockbag.add l.bags.(Memory.Ptr.arena_id p) p;
    let total =
      Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) 0 l.bags
    in
    if total >= t.retire_threshold then scan t ctx l

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false

  let local_limbo l =
    Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) 0 l.bags

  let limbo_per_proc t = Array.map local_limbo t.locals
  let limbo_size t = Array.fold_left (fun acc l -> acc + local_limbo l) 0 t.locals
  let epoch_lag t = Array.make (Array.length t.locals) 0

  let flush t ctx =
    let scanning = t.scanning.(ctx.Runtime.Ctx.pid) in
    Bag.Hash_set.clear scanning;
    Array.iteri
      (fun pid l ->
        Array.iter (fun r -> if r <> 0 then Bag.Hash_set.insert scanning r) l.mirror;
        for i = 0 to t.k - 1 do
          let r = Runtime.Shared_array.peek t.rows.(pid) i in
          if r <> 0 then Bag.Hash_set.insert scanning r
        done)
      t.locals;
    Array.iter
      (fun l ->
        Array.iter
          (fun b ->
            ignore
              (Scan_util.flush_bag ctx b
                 ~keep:(fun p -> Bag.Hash_set.mem scanning p)
                 ~release:(fun ctx p -> P.release t.pool ctx p)
                 ~release_block:(fun blk -> P.release_block t.pool ctx blk)))
          l.bags)
      t.locals

  (* Allocation-failure path: ScanAndFree immediately, below the threshold,
     draining partial blocks of our own buffer.  Announcement rows are only
     updated at segment commits, so a crashed process keeps at most k
     records pinned — StackTrack degrades gracefully under both crashes and
     memory pressure. *)
  let emergency_reclaim t ctx =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let scanning = t.scanning.(ctx.Runtime.Ctx.pid) in
    Scan_util.collect_announcements ctx ~into:scanning
      ~nprocs:(Intf.Env.nprocs t.env)
      ~row:(fun other -> t.rows.(other))
      ~count:(fun _ _ -> t.k);
    Array.iter (fun r -> if r <> 0 then Bag.Hash_set.insert scanning r) l.mirror;
    let released = ref 0 in
    Array.iter
      (fun b ->
        released :=
          !released
          + Scan_util.flush_bag ctx b
              ~keep:(fun p -> Bag.Hash_set.mem scanning p)
              ~release:(fun ctx p -> P.release t.pool ctx p)
              ~release_block:(fun blk -> P.release_block t.pool ctx blk))
      l.bags;
    if !released > 0 then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep !released);
    !released
end
