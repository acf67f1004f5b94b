(** DEBRA: distributed epoch-based reclamation (paper §4, Fig. 4), and the
    epoch core that DEBRA+ ({!Debra_plus}, §5) is built on.

    Differences from classical EBR, all implemented here:
    - private per-process limbo bags (blockbags) instead of shared bags, with
      O(1) bulk transfer of full blocks to the pool;
    - announcements are checked {e incrementally}: one other process per
      [CHECK_THRESH] operations, instead of all processes every operation;
    - the epoch is advanced only after [INCR_THRESH] leaveQstate calls;
    - a quiescent bit packed into the announcement word lets processes that
      are between operations be skipped, so a process sleeping outside an
      operation does not block reclamation (partial fault tolerance);
    - per-process announcements are padded to their own cache line.

    Limbo bags are kept per record type (arena), as in the paper's C++
    implementation, so full blocks stay homogeneous and can be handed to the
    pool in O(1).

    Epochs advance in steps of 2; bit 0 of an announcement is the quiescent
    bit.

    {!Core} is the protocol both schemes share: the epoch word, the
    announcements, the per-process locals with their bag triples,
    [enter_qstate]/[leave_qstate], [retire], the gauges, the [flush] walk
    and the emergency path's [observe] step.  The scheme supplies three
    hooks, bound once at [create]: [rotate] (what leaves the bag a rotation
    makes current), [lagging] (whether a peer whose announcement trails
    the epoch may count as passed) and [passed] (what a peer passing the
    check acknowledges).  {!Make} binds DEBRA's: every full block leaves, a
    laggard blocks the advance, nothing is acknowledged. *)

let name = "debra"

let discipline = Memory.Discipline.(make Epoch Grace_session)

let robustness =
  Intf.Robustness.Unbounded
    "the quiescent bit excuses only processes between operations: one that \
     stops inside an operation pins the epoch, as in EBR (paper §4)"

module Core (P : Intf.POOL) (X : sig type t end) = struct
  type local = {
    (* bags.(arena).(i): the three limbo bags for that record type *)
    bags : Bag.Blockbag.t array array;
    mutable index : int;  (* which bag triple entry is current *)
    mutable check_next : int;
    mutable ops_since_check : int;
    mutable ann : int;  (* mirror of our announcement word *)
  }

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    epoch : int Runtime.Svar.t;
    announce : Runtime.Shared_array.t;
    locals : local array;
    x : X.t;  (* the scheme's own state *)
    rotate : t -> Runtime.Ctx.t -> local -> bool -> int;
    lagging : t -> Runtime.Ctx.t -> local -> int -> bool;
    passed : t -> Runtime.Ctx.t -> int -> unit;
  }

  let discipline = discipline
  let allows_retired_traversal = true
  let sandboxed = false

  let make env pool x ~rotate ~lagging ~passed =
    let n = Intf.Env.nprocs env in
    let announce =
      Runtime.Shared_array.create
        ~padded:env.Intf.Env.params.Intf.Params.padded_announcements n
    in
    for pid = 0 to n - 1 do
      Runtime.Shared_array.poke announce pid 1 (* epoch 0, quiescent *)
    done;
    {
      env;
      pool;
      epoch = Runtime.Svar.make 2;
      announce;
      locals =
        Array.init n (fun pid ->
            {
              bags =
                Array.init Memory.Ptr.max_arenas (fun _ ->
                    Array.init 3 (fun _ ->
                        Bag.Blockbag.create env.Intf.Env.block_pools.(pid)));
              index = 0;
              check_next = 0;
              ops_since_check = 0;
              ann = 1;
            });
      x;
      rotate;
      lagging;
      passed;
    }

  let epoch_of ann = ann land lnot 1
  let quiescent_bit ann = ann land 1 = 1

  let enter_qstate t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let l = t.locals.(pid) in
    l.ann <- l.ann lor 1;
    Runtime.Shared_array.set ctx t.announce pid l.ann;
    Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q

  let is_quiescent t ctx = quiescent_bit t.locals.(ctx.Runtime.Ctx.pid).ann

  (* Rotate limbo bags: the oldest bag becomes the current bag, and its
     records were retired two observed epoch changes ago, so the scheme's
     [rotate] hook may release them.  [complete] marks the emergency path,
     which may pay O(B) per bag to release partial blocks too. *)
  let rotate_and_reclaim t ctx l ~complete =
    l.index <- (l.index + 1) mod 3;
    let released = t.rotate t ctx l complete in
    if released > 0 then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep released);
    released

  let try_advance t ctx e =
    Runtime.Svar.cas ctx t.epoch ~expect:e (e + 2)
    && begin
         Intf.Env.emit t.env ctx (Memory.Smr_event.Epoch_advance (e + 2));
         true
       end

  let leave_qstate t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let n = Intf.Env.nprocs t.env in
    let l = t.locals.(pid) in
    let params = t.env.Intf.Env.params in
    Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q;
    let read_epoch = Runtime.Svar.get ctx t.epoch in
    if epoch_of l.ann <> read_epoch then begin
      (* New epoch: restart the incremental scan and reclaim the oldest
         limbo bag. *)
      l.ops_since_check <- 0;
      l.check_next <- 0;
      ignore (rotate_and_reclaim t ctx l ~complete:false)
    end;
    l.ops_since_check <- l.ops_since_check + 1;
    if l.ops_since_check >= params.Intf.Params.check_thresh then begin
      l.ops_since_check <- 0;
      let other = l.check_next mod n in
      let a = Runtime.Shared_array.get ctx t.announce other in
      let passed =
        if epoch_of a = read_epoch || quiescent_bit a then begin
          t.passed t ctx other;
          true
        end
        else t.lagging t ctx l other
      in
      if passed then begin
        l.check_next <- l.check_next + 1;
        if l.check_next >= n && l.check_next >= params.Intf.Params.incr_thresh
        then ignore (try_advance t ctx read_epoch)
      end
    end;
    l.ann <- read_epoch;
    Runtime.Shared_array.set ctx t.announce pid read_epoch

  let protect _t _ctx _p ~verify:_ = true
  let unprotect _t _ctx _p = ()
  let unprotect_all _t _ctx = ()
  let is_protected _t _ctx _p = true

  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    Runtime.Ctx.work ctx 2;
    let p = Memory.Ptr.unmark p in
    Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    Bag.Blockbag.add l.bags.(Memory.Ptr.arena_id p).(l.index) p

  let local_limbo l =
    Array.fold_left
      (fun acc triple ->
        Array.fold_left (fun acc b -> acc + Bag.Blockbag.size b) acc triple)
      0 l.bags

  let limbo_per_proc t = Array.map local_limbo t.locals
  let limbo_size t = Array.fold_left (fun acc l -> acc + local_limbo l) 0 t.locals

  let epoch_lag t =
    let e = Runtime.Svar.peek t.epoch in
    Array.map
      (fun l ->
        if quiescent_bit l.ann then 0 else max 0 ((e - epoch_of l.ann) / 2))
      t.locals

  (* Drain every bag of every process, keeping the records [keep] holds. *)
  let flush_bags t ctx ~keep =
    Array.iter
      (fun l ->
        Array.iter
          (fun triple ->
            Array.iter
              (fun b ->
                ignore
                  (Scan_util.flush_bag ctx b ~keep
                     ~release:(fun ctx p -> P.release t.pool ctx p)
                     ~release_block:(fun blk -> P.release_block t.pool ctx blk)))
              triple)
          l.bags)
      t.locals

  (* The allocation-failure path's first step: abandon the incremental
     amortization and, if the epoch moved, rotate now, mid-operation,
     adding what it frees to [freed].  Sound because rotation only frees
     records retired two observed epoch changes ago, and our own
     (unchanged) announcement limits the epoch to one further advance while
     we are non-quiescent — the same precondition the op-boundary rotation
     relies on.  Only the local announcement {e mirror} is moved to the
     observed epoch so the rotation is not repeated for the same change at
     the next [leave_qstate]; the published announcement keeps its old
     epoch, since advertising a newer one mid-operation would be unsound. *)
  let observe t ctx l freed =
    let e = Runtime.Svar.get ctx t.epoch in
    if epoch_of l.ann <> e then begin
      l.ann <- e lor (l.ann land 1);
      l.ops_since_check <- 0;
      l.check_next <- 0;
      freed := !freed + rotate_and_reclaim t ctx l ~complete:true
    end;
    e
end

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  include Core (P) (struct type t = unit end)

  let name = name
  let supports_crash_recovery = false

  (* Every full block of the bag just made current moves to the pool in
     O(1) per block.  Up to B-1 leftover records stay in each partial head
     block and are reclaimed in a later rotation (paper §4, "Block bags").
     With [complete] the partial head block leaves whole too. *)
  let rotate t ctx l complete =
    let into b = P.release_block t.pool ctx b in
    Array.fold_left
      (fun released triple ->
        let bag = triple.(l.index) in
        released
        + (if complete then Bag.Blockbag.drain_blocks bag ~into
           else Bag.Blockbag.move_all_full_blocks bag ~into))
      0 l.bags

  let create env pool =
    make env pool () ~rotate
      ~lagging:(fun _ _ _ _ -> false)
      ~passed:(fun _ _ _ -> ())

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false
  let flush t ctx = flush_bags t ctx ~keep:(fun _ -> false)

  (* Allocation failure: rotate if the epoch moved, then scan every
     announcement now instead of one per operation. *)
  let emergency_reclaim t ctx =
    let n = Intf.Env.nprocs t.env in
    let l = t.locals.(ctx.Runtime.Ctx.pid) in
    let freed = ref 0 in
    let e = observe t ctx l freed in
    let all_ok = ref true in
    for other = 0 to n - 1 do
      let a = Runtime.Shared_array.get ctx t.announce other in
      if not (epoch_of a = e || quiescent_bit a) then all_ok := false
    done;
    if !all_ok && try_advance t ctx e then ignore (observe t ctx l freed);
    !freed
end
