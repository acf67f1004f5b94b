(** Classical epoch-based reclamation (Fraser), as described in the paper's
    §3: a single global epoch, shared limbo bags, and a full scan of every
    process' announcement at the start of {e every} operation.

    This is the scheme DEBRA distributes: the per-operation scan and the
    CAS-per-retire on the shared bags are the costs DEBRA's incremental
    checking and private blockbags remove.  Kept as a baseline for the
    ablation benchmarks.  Not fault tolerant: one stalled non-quiescent
    process stops reclamation (and, unlike DEBRA, even a process stalled
    {e between} operations does, unless it entered a quiescent state). *)

let name = "ebr"

let discipline = Memory.Discipline.(make Epoch Grace_session)

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    epoch : int Runtime.Svar.t;  (* even values; bit 0 of announcements = quiescent *)
    announce : Runtime.Shared_array.t;
    limbo : Bag.Shared_intbag.t array;  (* 3 epoch bags *)
    my_ann : int array;  (* local mirror of own announcement *)
    release : Runtime.Ctx.t -> int -> unit;  (* drain callback, bound once *)
  }

  let name = name
  let discipline = discipline
  let supports_crash_recovery = false
  let allows_retired_traversal = true
  let sandboxed = false

  let create env pool =
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
      limbo = Array.init 3 (fun _ -> Bag.Shared_intbag.create ());
      my_ann = Array.make n 1;
      release = P.release pool;
    }

  let epoch_of ann = ann land lnot 1
  let quiescent_bit ann = ann land 1 = 1
  let bag_of t e = t.limbo.((e / 2) mod 3)

  let enter_qstate t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    t.my_ann.(pid) <- t.my_ann.(pid) lor 1;
    Runtime.Shared_array.set ctx t.announce pid t.my_ann.(pid);
    Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q

  let is_quiescent t ctx = quiescent_bit t.my_ann.(ctx.Runtime.Ctx.pid)

  let leave_qstate t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let n = Intf.Env.nprocs t.env in
    Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q;
    let e = Runtime.Svar.get ctx t.epoch in
    t.my_ann.(pid) <- e;
    Runtime.Shared_array.set ctx t.announce pid e;
    (* Scan every announcement, every operation. *)
    let all_ok = ref true in
    for other = 0 to n - 1 do
      let a = Runtime.Shared_array.get ctx t.announce other in
      if not (epoch_of a = e || quiescent_bit a) then all_ok := false
    done;
    if !all_ok && Runtime.Svar.cas ctx t.epoch ~expect:e (e + 2) then begin
      (* Built only when observed: with one process this branch runs on
         every operation. *)
      if Runtime.Ctx.observed ctx then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Epoch_advance (e + 2));
      (* The new epoch is e+2; records retired in epoch e-2 are now safe. *)
      let safe = bag_of t (e + 4) (* (e+4)/2 mod 3 = (e-2)/2 mod 3 *) in
      let released = Bag.Shared_intbag.drain ctx safe t.release in
      if released > 0 && Runtime.Ctx.observed ctx then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep released)
    end

  let protect _t _ctx _p ~verify:_ = true
  let unprotect _t _ctx _p = ()
  let unprotect_all _t _ctx = ()
  let is_protected _t _ctx _p = true

  (* Retired records are bagged by the *current* epoch, re-read here (an
     extra shared read per retire — an authentic cost of classical EBR).
     Bagging by the announced epoch instead is unsound: a remover whose
     announcement lags the epoch by one would place the record in a bag that
     only needs one more advance before being drained, yet readers that
     announced the current epoch before the removal may still hold pointers.
     With current-epoch bagging, bag e is drained at the advance to e+4
     (epochs move in steps of 2), which cannot happen while the remover is
     still mid-operation, and every process quiesces after the retire before
     the drain. *)
  let retire t ctx p =
    ctx.Runtime.Ctx.stats.Runtime.Ctx.retires <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.retires + 1;
    let p = Memory.Ptr.unmark p in
    Intf.Env.emit t.env ctx (Memory.Smr_event.Retire p);
    let e = Runtime.Svar.get ctx t.epoch in
    Bag.Shared_intbag.push ctx (bag_of t e) p

  let rprotect _t _ctx _p = ()
  let runprotect_all _t _ctx = ()
  let is_rprotected _t _ctx _p = false

  let limbo_size t =
    Array.fold_left (fun acc b -> acc + Bag.Shared_intbag.size b) 0 t.limbo

  (* Classical EBR keeps its limbo in shared bags, so the population cannot
     be attributed to the retiring process: report it all on process 0. *)
  let limbo_per_proc t =
    let a = Array.make (Intf.Env.nprocs t.env) 0 in
    a.(0) <- limbo_size t;
    a

  let epoch_lag t =
    let e = Runtime.Svar.peek t.epoch in
    Array.map
      (fun ann -> if quiescent_bit ann then 0 else max 0 ((e - epoch_of ann) / 2))
      t.my_ann

  let flush t ctx =
    (* Safe even when a process crashed mid-operation: a dead process never
       accesses again, so draining the bags cannot produce a use-after-free
       at shutdown. *)
    Array.iter
      (fun b ->
        ignore (Bag.Shared_intbag.drain ctx b t.release))
      t.limbo

  (* Allocation-failure path.  EBR already scans every announcement each
     operation; all that is left to try mid-operation is advancing the epoch
     once more and draining the bag that becomes safe.  Our own announcement
     pins the epoch (we are non-quiescent), so this succeeds at most once —
     and not at all when a stalled or crashed peer lags the epoch, which is
     EBR's honest degradation under faults. *)
  let emergency_reclaim t ctx =
    let n = Intf.Env.nprocs t.env in
    let e = Runtime.Svar.get ctx t.epoch in
    let all_ok = ref true in
    for other = 0 to n - 1 do
      let a = Runtime.Shared_array.get ctx t.announce other in
      if not (epoch_of a = e || quiescent_bit a) then all_ok := false
    done;
    if !all_ok && Runtime.Svar.cas ctx t.epoch ~expect:e (e + 2) then begin
      Intf.Env.emit t.env ctx (Memory.Smr_event.Epoch_advance (e + 2));
      let safe = bag_of t (e + 4) in
      let released = Bag.Shared_intbag.drain ctx safe t.release in
      if released > 0 then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep released);
      released
    end
    else 0
end
