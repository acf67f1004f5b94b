(** Reference counting (paper §3, "RC").

    The paper surveys lock-free reference counting (Detlefs et al.'s LFRC,
    Herlihy et al.'s SLFRC) and concludes that updating counters on every
    pointer traversal makes RC the slowest of the practical schemes.  This
    implementation reproduces exactly that cost profile: [protect] and
    [unprotect] perform a fetch-and-add on a shared per-record counter, so
    every node reached by a traversal costs two read-modify-writes plus
    their coherence traffic.

    Scope: the counter tracks references held by {e processes} (like the
    hazard-pointer-backed SLFRC, or Pass-the-Buck's guards), not pointers
    stored in other records — which sidesteps the cycle-collection problem
    the paper describes but keeps the measured per-access overhead faithful.
    A retired record is freed when its process-reference count is zero.

    Like HP, RC cannot traverse from retired records to retired records:
    the data structure must verify each protection and restart on
    suspicion.

    Counter safety on reused slots: [protect] increments first and
    validates the pointer's generation afterwards; an increment that landed
    on a slot that was re-allocated in the meantime is immediately undone,
    and can only delay (never cause) a reclamation — the transient +1 makes
    the scheme conservative, mirroring how SLFRC tolerates stale counter
    touches under its hazard-pointer umbrella. *)

let name = "rc"

let discipline = Memory.Discipline.(make Hazard Hazard_scan)

(* A stopped process keeps at most k counts raised (the structures'
   protection footprint, as HP's slots); every process scans at 2B
   retired records and keeps only the records still counted. *)
let robustness =
  Intf.Robustness.Bounded
    (fun ~n params ->
      n
      * ((2 * params.Intf.Params.block_capacity)
        + (n * params.Intf.Params.hp_slots)))

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  type local = {
    bags : Bag.Blockbag.t array;  (* retired, per arena *)
    mutable held : Memory.Ptr.t array;
        (* our outstanding increments, oldest first: a stack in
           [held.(0 .. nheld - 1)], grown by doubling *)
    mutable nheld : int;
  }

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    counts : Runtime.Shared_array.t option array;  (* per arena id, lazy *)
    locals : local array;
    scan_threshold : int;
  }

  let name = name
  let discipline = discipline
  let supports_crash_recovery = false
  let allows_retired_traversal = false
  let sandboxed = false

  let create env pool =
    let n = Intf.Env.nprocs env in
    {
      env;
      pool;
      counts = Array.make Memory.Ptr.max_arenas None;
      locals =
        Array.init n (fun pid ->
            {
              bags =
                Array.init Memory.Ptr.max_arenas (fun _ ->
                    Bag.Blockbag.create env.Intf.Env.block_pools.(pid));
              held = Array.make 8 Memory.Ptr.null;
              nheld = 0;
            });
      scan_threshold = 2 * env.Intf.Env.params.Intf.Params.block_capacity;
    }

  let counts_of t heap_id =
    match t.counts.(heap_id) with
    | Some c -> c
    | None ->
        let arena =
          List.find
            (fun a -> Memory.Arena.heap_id a = heap_id)
            (Memory.Heap.arenas t.env.Intf.Env.heap)
        in
        let c = Runtime.Shared_array.create (Memory.Arena.capacity arena) in
        t.counts.(heap_id) <- Some c;
        c

  let leave_qstate t ctx = Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q
  let is_quiescent _t _ctx = false

  let protect t ctx p ~verify =
    let p = Memory.Ptr.unmark p in
    let c = counts_of t (Memory.Ptr.arena_id p) in
    let slot = Memory.Ptr.slot p in
    ignore (Runtime.Shared_array.faa ctx c slot 1);
    (* The increment is visible: the shadow hazard window opens here and is
       closed (Unprotect) before the undo decrement on failure. *)
    if Runtime.Ctx.observed ctx then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Protect p);
    let arena = Memory.Heap.arena_of t.env.Intf.Env.heap p in
    if Memory.Arena.is_valid arena p && verify () then begin
      let l = t.locals.(ctx.Runtime.Ctx.pid) in
      if l.nheld = Array.length l.held then begin
        let grown = Array.make (2 * l.nheld) Memory.Ptr.null in
        Array.blit l.held 0 grown 0 l.nheld;
        l.held <- grown
      end;
      l.held.(l.nheld) <- p;
      l.nheld <- l.nheld + 1;
      true
    end
    else begin
      if Runtime.Ctx.observed ctx then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Unprotect p);
      ignore (Runtime.Shared_array.faa ctx c slot (-1));
      false
    end

  let decrement t ctx p =
    let c = counts_of t (Memory.Ptr.arena_id p) in
    ignore (Runtime.Shared_array.faa ctx c (Memory.Ptr.slot p) (-1))

  (* The index of the newest outstanding increment on [p], or -1.  Which
     duplicate goes matters: the ledger's order is the order of
     [unprotect_all]'s decrements, hence of simulated accesses. *)
  let rec newest_held (held : Memory.Ptr.t array) p i =
    if i < 0 then -1 else if held.(i) = p then i else newest_held held p (i - 1)

  let unprotect t ctx p =
    let p = Memory.Ptr.unmark p in
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let i = newest_held l.held p (l.nheld - 1) in
    if i >= 0 then begin
      if Runtime.Ctx.observed ctx then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Unprotect p);
      Array.blit l.held (i + 1) l.held i (l.nheld - i - 1);
      l.nheld <- l.nheld - 1;
      decrement t ctx p
    end

  (* The per-process ledger of outstanding increments lets a restarting
     operation drop everything it holds in one call, newest first. *)
  let unprotect_all t ctx =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    Intf.Env.emit t.env ctx Memory.Smr_event.Unprotect_all;
    for i = l.nheld - 1 downto 0 do
      decrement t ctx l.held.(i)
    done;
    l.nheld <- 0

  (* Finishing an operation releases every reference it still holds. *)
  let enter_qstate t ctx =
    unprotect_all t ctx;
    Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q

  let is_protected t ctx p =
    let p = Memory.Ptr.unmark p in
    Runtime.Shared_array.get ctx (counts_of t (Memory.Ptr.arena_id p))
      (Memory.Ptr.slot p)
    > 0

  let scan t ctx l =
    let released = ref 0 in
    Array.iteri
      (fun aid bag ->
        if not (Bag.Blockbag.is_empty bag) then begin
          let c = counts_of t aid in
          Runtime.Ctx.work ctx (Bag.Blockbag.size bag);
          let it1 = Bag.Blockbag.cursor bag in
          let it2 = Bag.Blockbag.cursor bag in
          while not (Bag.Blockbag.at_end it1) do
            let r = Bag.Blockbag.get it1 in
            if Runtime.Shared_array.get ctx c (Memory.Ptr.slot r) > 0 then begin
              Bag.Blockbag.swap it1 it2;
              Bag.Blockbag.advance it2
            end;
            Bag.Blockbag.advance it1
          done;
          released :=
            !released
            + Bag.Blockbag.move_full_blocks_after bag it2 ~into:(fun b ->
                  P.release_block t.pool ctx b)
        end)
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
    if total >= t.scan_threshold then scan t ctx l

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false

  let local_limbo l =
    Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) 0 l.bags

  let limbo_per_proc t = Array.map local_limbo t.locals
  let limbo_size t = Array.fold_left (fun acc l -> acc + local_limbo l) 0 t.locals
  let epoch_lag t = Array.make (Array.length t.locals) 0

  let flush t ctx =
    Array.iter
      (fun l ->
        Array.iteri
          (fun aid bag ->
            if not (Bag.Blockbag.is_empty bag) then
              let c = counts_of t aid in
              ignore
                (Scan_util.flush_bag ctx bag
                   ~keep:(fun p ->
                     Runtime.Shared_array.peek c (Memory.Ptr.slot p) > 0)
                   ~release:(fun ctx p -> P.release t.pool ctx p)
                   ~release_block:(fun b -> P.release_block t.pool ctx b)))
          l.bags)
      t.locals

  (* Allocation-failure path: drain our own retired bags completely,
     freeing every record whose process-reference count is zero.  Like HP,
     independent of other processes' progress — only records actually held
     by a (possibly crashed) process stay in limbo. *)
  let emergency_reclaim t ctx =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let released = ref 0 in
    Array.iteri
      (fun aid bag ->
        if not (Bag.Blockbag.is_empty bag) then begin
          let c = counts_of t aid in
          released :=
            !released
            + Scan_util.flush_bag ctx bag
                ~keep:(fun p ->
                  Runtime.Shared_array.get ctx c (Memory.Ptr.slot p) > 0)
                ~release:(fun ctx p -> P.release t.pool ctx p)
                ~release_block:(fun b -> P.release_block t.pool ctx b)
        end)
      l.bags;
    if !released > 0 then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep !released);
    !released
end
