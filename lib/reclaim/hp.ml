(** Hazard pointers (Michael), tuned for throughput as in the paper's
    evaluation: each process keeps k announcement slots and a private bag of
    retired records, scanning all announcements only once the bag reaches
    [max(f·n·k, min(2B, n·k))] records (f = [hp_retire_factor], B =
    [block_capacity]).  A scan frees every unannounced record, partial
    blocks included, so with f >= 2 each scan frees at least nk records —
    O(1) amortized per retire — and a process' limbo never exceeds
    [max(threshold, nk)]: HP's footprint is Θ(nk), independent of B.

    The per-access cost is the scheme's weakness: [protect] must announce
    the pointer, issue a full memory barrier so scanners cannot miss the
    announcement, and then verify that the record is still in the data
    structure.  When verification cannot be done reliably — which is the
    case for every data structure whose searches traverse retired records —
    the operation restarts, which is how the paper's evaluation applies HP
    (at the cost of the data structure's lock-freedom; see §3). *)

let name = "hp"

let discipline = Memory.Discipline.(make Hazard Hazard_scan)

(* The scan threshold in records, [max(f·n·k, min(2B, n·k))].  The floor
   matters only for small f: at f = 0 a scan still batches min(2B, n·k)
   retires instead of running on every one. *)
let threshold (params : Intf.Params.t) ~n =
  let k = params.Intf.Params.hp_slots in
  max
    (params.Intf.Params.hp_retire_factor * n * k)
    (min (2 * params.Intf.Params.block_capacity) (n * k))

(* A stopped process pins at most its own k hazard pointers and its own
   bag; every process' limbo stays within [max(threshold, nk)]: Θ(nk) per
   process. *)
let robustness =
  Intf.Robustness.Bounded
    (fun ~n params ->
      n * max (threshold params ~n) (n * params.Intf.Params.hp_slots))

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  type local = {
    slots_mirror : int array;  (* local view of our announcement row *)
    bags : Bag.Blockbag.t array;  (* retired records, per arena *)
  }

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    rows : Runtime.Shared_array.t array;  (* announcements, [pid] *)
    locals : local array;
    scanning : Bag.Hash_set.t array;
    retire_threshold : int;  (* records *)
    k : int;
  }

  let name = name
  let discipline = discipline
  let supports_crash_recovery = false
  let allows_retired_traversal = false
  let sandboxed = false

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
              slots_mirror = Array.make k 0;
              bags =
                Array.init arenas (fun _ ->
                    Bag.Blockbag.create env.Intf.Env.block_pools.(pid));
            });
      scanning = Array.init n (fun _ -> Bag.Hash_set.create ~expected:(n * k));
      retire_threshold = threshold params ~n;
      k;
    }

  let leave_qstate t ctx = Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q

  (* Protection events bracket the window in which the announcement is
     visible to scanners: [Protect] is emitted after the announcing write,
     [Unprotect] before the retracting one.  A shadow checker's hazard set
     is then always a subset of what a concurrent scan can observe. *)

  let unprotect_all t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let l = t.locals.(pid) in
    Intf.Env.emit t.env ctx Memory.Smr_event.Unprotect_all;
    for i = 0 to t.k - 1 do
      if l.slots_mirror.(i) <> 0 then begin
        l.slots_mirror.(i) <- 0;
        Runtime.Shared_array.set ctx t.rows.(pid) i 0
      end
    done

  (* Leaving an operation releases every hazard pointer. *)
  let enter_qstate t ctx =
    unprotect_all t ctx;
    Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q

  let is_quiescent _t _ctx = false

  let protect t ctx p ~verify =
    let pid = ctx.Runtime.Ctx.pid in
    let l = t.locals.(pid) in
    let p = Memory.Ptr.unmark p in
    let i = Scan_util.find_slot l.slots_mirror 0 in
    if i < 0 then
      invalid_arg "Hp.protect: out of hazard-pointer slots (raise hp_slots)";
    l.slots_mirror.(i) <- p;
    Runtime.Shared_array.set ctx t.rows.(pid) i p;
    if Runtime.Ctx.observed ctx then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Protect p);
    (* The barrier that makes the announcement visible before the record is
       re-verified — the cost HP pays on every newly reached record. *)
    Runtime.Ctx.fence ctx;
    if verify () then true
    else begin
      if Runtime.Ctx.observed ctx then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Unprotect p);
      l.slots_mirror.(i) <- 0;
      Runtime.Shared_array.set ctx t.rows.(pid) i 0;
      false
    end

  let unprotect t ctx p =
    let pid = ctx.Runtime.Ctx.pid in
    let l = t.locals.(pid) in
    let p = Memory.Ptr.unmark p in
    let i = Scan_util.find_slot l.slots_mirror p in
    if i >= 0 then begin
      if Runtime.Ctx.observed ctx then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Unprotect p);
      l.slots_mirror.(i) <- 0;
      Runtime.Shared_array.set ctx t.rows.(pid) i 0
    end

  let is_protected t ctx p =
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let p = Memory.Ptr.unmark p in
    Array.exists (fun s -> s = p) l.slots_mirror

  let local_limbo l =
    Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) 0 l.bags

  (* The one scan, on the amortized path and the allocation-failure path
     alike: hash every announcement, then drain our own retired bags of
     every record no hazard pointer covers — full blocks leave whole,
     partial ones record by record ([Scan_util.flush_bag]).  Only announced
     records stay, at most nk, so limbo stays within [max(threshold, nk)].
     The bound does not depend on other processes making progress: even
     under crashes and stalls a scan frees all but O(nk) records. *)
  let scan t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let l = t.locals.(pid) in
    let scanning = t.scanning.(pid) in
    Scan_util.collect_announcements ctx ~into:scanning
      ~nprocs:(Intf.Env.nprocs t.env)
      ~row:(fun other -> t.rows.(other))
      ~count:(fun _ _ -> t.k);
    (* the partition pass: one hash probe and at most one swap per record *)
    Runtime.Ctx.work ctx (2 * local_limbo l);
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

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    Runtime.Ctx.work ctx 2;
    let p = Memory.Ptr.unmark p in
    Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    Bag.Blockbag.add l.bags.(Memory.Ptr.arena_id p) p;
    if local_limbo l >= t.retire_threshold then ignore (scan t ctx)

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false

  let limbo_per_proc t = Array.map local_limbo t.locals
  let limbo_size t = Array.fold_left (fun acc l -> acc + local_limbo l) 0 t.locals
  let epoch_lag t = Array.make (Array.length t.locals) 0

  let flush t ctx =
    let scanning = t.scanning.(ctx.Runtime.Ctx.pid) in
    Scan_util.collect_announcements ctx ~into:scanning
      ~nprocs:(Intf.Env.nprocs t.env)
      ~row:(fun other -> t.rows.(other))
      ~count:(fun _ _ -> t.k);
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

  (* Allocation-failure path: the same scan, below the threshold. *)
  let emergency_reclaim = scan
end
