(** DEBRA+: fault-tolerant distributed epoch-based reclamation (paper §5,
    Fig. 6).

    DEBRA+ extends DEBRA with {e neutralizing}: a process that lags the
    epoch while its peers' limbo bags grow is sent a (simulated POSIX)
    signal.  Its handler — installed on the process context at [create] —
    checks the quiescent bit: a quiescent process ignores the signal, a
    non-quiescent one enters a quiescent state and aborts its operation by
    raising {!Runtime.Ctx.Neutralized} (the [siglongjmp]).  The operation
    wrapper then runs recovery code (see {!Record_manager}).

    Because recovery must still access the operation's descriptor (and the
    records its help routine touches), DEBRA+ adds a limited form of hazard
    pointers: [rprotect]ed records are excluded from reclamation by swapping
    them to the front of the limbo bag before the full blocks behind them
    are transferred to the pool — expected amortized O(1) per record.

    The number of records waiting to be freed is O(n(nm + c)): once a
    process' current bag exceeds the suspect threshold it neutralizes every
    laggard, so the epoch keeps advancing even across crashes. *)

type local = {
  bags : Bag.Blockbag.t array array;  (* [arena][epoch slot] *)
  mutable index : int;
  mutable check_next : int;
  mutable ops_since_check : int;
  mutable ann : int;
  sig_attempts : int array;  (* per-target resends since last ack *)
  sig_last : int array;  (* per-target virtual time of last resend *)
}

let name = "debra+"

let discipline = Memory.Discipline.(make Epoch Grace_session)

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  type t = {
    env : Intf.Env.t;
    pool : P.t;
    epoch : int Runtime.Svar.t;
    announce : Runtime.Shared_array.t;
    locals : local array;
    rp_rows : Runtime.Shared_array.t array;  (* RProtected[pid] *)
    rp_count : Runtime.Shared_array.t;  (* published row sizes, padded *)
    scanning : Bag.Hash_set.t array;  (* per-process scratch for scans *)
    scan_threshold : int;  (* blocks *)
  }

  let name = name
  let discipline = discipline
  let supports_crash_recovery = true
  let allows_retired_traversal = true
  let sandboxed = false

  let epoch_of ann = ann land lnot 1
  let quiescent_bit ann = ann land 1 = 1
  let is_quiescent t ctx = quiescent_bit t.locals.(ctx.Runtime.Ctx.pid).ann

  let enter_qstate t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let l = t.locals.(pid) in
    l.ann <- l.ann lor 1;
    Runtime.Shared_array.set ctx t.announce pid l.ann;
    Intf.Env.emit t.env ctx Memory.Smr_event.Enter_q

  let create env pool =
    let n = Intf.Env.nprocs env in
    let params = env.Intf.Env.params in
    let arenas = Memory.Ptr.max_arenas in
    let k = params.Intf.Params.hp_slots in
    let b = params.Intf.Params.block_capacity in
    let announce =
      Runtime.Shared_array.create ~padded:params.Intf.Params.padded_announcements
        n
    in
    for pid = 0 to n - 1 do
      Runtime.Shared_array.poke announce pid 1
    done;
    let t =
      {
        env;
        pool;
        epoch = Runtime.Svar.make 2;
        announce;
        locals =
          Array.init n (fun pid ->
              {
                bags =
                  Array.init arenas (fun _ ->
                      Array.init 3 (fun _ ->
                          Bag.Blockbag.create env.Intf.Env.block_pools.(pid)));
                index = 0;
                check_next = 0;
                ops_since_check = 0;
                ann = 1;
                sig_attempts = Array.make n 0;
                sig_last = Array.make n 0;
              });
        rp_rows = Runtime.Shared_array.rows n k;
        rp_count = Runtime.Shared_array.create ~padded:true n;
        scanning = Array.init n (fun _ -> Bag.Hash_set.create ~expected:(n * k));
        scan_threshold =
          ((n * k) + b - 1) / b + params.Intf.Params.scan_blocks_slack;
      }
    in
    (* Install the signal handler on every process context. *)
    Array.iter
      (fun ctx ->
        ctx.Runtime.Ctx.handler <-
          (fun ctx ->
            if is_quiescent t ctx then
              ctx.Runtime.Ctx.stats.Runtime.Ctx.signals_ignored <-
                ctx.Runtime.Ctx.stats.Runtime.Ctx.signals_ignored + 1
            else begin
              enter_qstate t ctx;
              ctx.Runtime.Ctx.stats.Runtime.Ctx.neutralized <-
                ctx.Runtime.Ctx.stats.Runtime.Ctx.neutralized + 1;
              raise Runtime.Ctx.Neutralized
            end))
      env.Intf.Env.group.Runtime.Group.ctxs;
    t

  let current_blocks l =
    Array.fold_left
      (fun acc triple -> acc + Bag.Blockbag.size_in_blocks triple.(l.index))
      0 l.bags

  (* Limited hazard pointers for recovery (single-writer rows). *)

  let rprotect t ctx p =
    let pid = ctx.Runtime.Ctx.pid in
    let c = Runtime.Shared_array.peek t.rp_count pid in
    if c >= Runtime.Shared_array.length t.rp_rows.(pid) then
      invalid_arg "Debra_plus.rprotect: out of RProtect slots (raise hp_slots)";
    Runtime.Shared_array.set ctx t.rp_rows.(pid) c (Memory.Ptr.unmark p);
    Runtime.Shared_array.set ctx t.rp_count pid (c + 1);
    Runtime.Ctx.fence ctx;
    (* After the count write: the announcement is now visible to scans. *)
    if Runtime.Ctx.observed ctx then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Rprotect (Memory.Ptr.unmark p))

  let runprotect_all t ctx =
    (* Before the count write: the announcements are still visible. *)
    Intf.Env.emit t.env ctx Memory.Smr_event.Runprotect_all;
    Runtime.Shared_array.set ctx t.rp_count ctx.Runtime.Ctx.pid 0

  let is_rprotected t ctx p =
    let pid = ctx.Runtime.Ctx.pid in
    let c = Runtime.Shared_array.get ctx t.rp_count pid in
    let p = Memory.Ptr.unmark p in
    let rec go i =
      if i >= c then false
      else if Runtime.Shared_array.get ctx t.rp_rows.(pid) i = p then true
      else go (i + 1)
    in
    go 0

  (* Rotate limbo bags; when the freshly-rotated current bag is big enough
     to amortize a full RProtect scan, partition out the protected records
     and bulk-transfer the full blocks behind them.  With [complete] (the
     allocation-failure path) the scan runs regardless of the threshold and
     the partial head blocks are drained record-by-record too, still keeping
     every rprotected record in limbo. *)
  let rotate_and_reclaim ?(complete = false) t ctx l =
    l.index <- (l.index + 1) mod 3;
    let released = ref 0 in
    if complete || current_blocks l >= t.scan_threshold then begin
      let scanning = t.scanning.(ctx.Runtime.Ctx.pid) in
      Scan_util.collect_announcements ctx ~into:scanning
        ~nprocs:(Intf.Env.nprocs t.env)
        ~row:(fun other -> t.rp_rows.(other))
        ~count:(fun ctx other -> Runtime.Shared_array.get ctx t.rp_count other);
      Array.iter
        (fun triple ->
          let bag = triple.(l.index) in
          released :=
            !released
            + Scan_util.partition_and_release ctx bag ~protected:scanning
                ~release_block:(fun b -> P.release_block t.pool ctx b);
          if complete then
            released :=
              !released
              + Scan_util.flush_bag ctx bag
                  ~keep:(fun p -> Bag.Hash_set.mem scanning p)
                  ~release:(fun ctx p -> P.release t.pool ctx p)
                  ~release_block:(fun b -> P.release_block t.pool ctx b))
        l.bags;
      if !released > 0 then
        Intf.Env.emit t.env ctx (Memory.Smr_event.Sweep !released)
    end;
    !released

  (* Neutralize a laggard.  Under reliable delivery one signal suffices:
     once it lands, the target quiesces before its next shared access, so
     the sender may immediately count it as passed (paper §5).  Two
     fault-campaign extensions: a send failing with ESRCH means the target
     crashed — it can never access again, so it counts as permanently
     quiescent instead of wedging the epoch; and when the group's signal
     delivery is marked unreliable, a send proves nothing — the sender
     resends with exponential backoff and only the target's announcement
     (quiescent bit or current epoch, observed by the caller on a later
     check) acknowledges neutralization. *)
  let suspect_neutralized t ctx l other =
    current_blocks l >= t.env.Intf.Env.params.Intf.Params.suspect_blocks
    && begin
         let g = t.env.Intf.Env.group in
         if not g.Runtime.Group.signals_unreliable then
           match Runtime.Group.send_signal g ~from:ctx ~target:other with
           | true ->
               Intf.Env.emit t.env ctx (Memory.Smr_event.Signal_sent other);
               true
           | false -> true (* ESRCH: crashed, permanently quiescent *)
         else begin
           let now = Runtime.Ctx.now ctx in
           let a = l.sig_attempts.(other) in
           if a = 0 || now - l.sig_last.(other) >= 64 * (1 lsl min a 10) then
             (match Runtime.Group.send_signal g ~from:ctx ~target:other with
             | true ->
                 Intf.Env.emit t.env ctx (Memory.Smr_event.Signal_sent other);
                 l.sig_attempts.(other) <- a + 1;
                 l.sig_last.(other) <- now;
                 false
             | false -> true)
           else false
         end
       end

  let leave_qstate t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let n = Intf.Env.nprocs t.env in
    let l = t.locals.(pid) in
    let params = t.env.Intf.Env.params in
    Intf.Env.emit t.env ctx Memory.Smr_event.Leave_q;
    let read_epoch = Runtime.Svar.get ctx t.epoch in
    if epoch_of l.ann <> read_epoch then begin
      l.ops_since_check <- 0;
      l.check_next <- 0;
      ignore (rotate_and_reclaim t ctx l)
    end;
    l.ops_since_check <- l.ops_since_check + 1;
    if l.ops_since_check >= params.Intf.Params.check_thresh then begin
      l.ops_since_check <- 0;
      let other = l.check_next mod n in
      let a = Runtime.Shared_array.get ctx t.announce other in
      let passed =
        if epoch_of a = read_epoch || quiescent_bit a then begin
          (* Any pending neutralization of [other] is acknowledged. *)
          l.sig_attempts.(other) <- 0;
          true
        end
        else other <> pid && suspect_neutralized t ctx l other
      in
      if passed then begin
        l.check_next <- l.check_next + 1;
        if
          l.check_next >= n
          && l.check_next >= params.Intf.Params.incr_thresh
          && Runtime.Svar.cas ctx t.epoch ~expect:read_epoch (read_epoch + 2)
        then
          Intf.Env.emit t.env ctx
            (Memory.Smr_event.Epoch_advance (read_epoch + 2))
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

  let flush t ctx =
    (* Records rprotected by an unfinished recovery stay in limbo; under the
       quiescent-shutdown contract all rp rows of {e surviving} processes
       are empty and the bags drain completely.  A process that crashed
       mid-recovery is permanently non-quiescent: its rp row is still
       published, so the records it announced are kept in limbo rather than
       freed — the crash-leak accounting the leak ledger reports as
       remaining limbo, bounded by hp_slots per crashed process. *)
    let scanning = t.scanning.(ctx.Runtime.Ctx.pid) in
    Scan_util.collect_announcements ctx ~into:scanning
      ~nprocs:(Intf.Env.nprocs t.env)
      ~row:(fun other -> t.rp_rows.(other))
      ~count:(fun ctx other -> Runtime.Shared_array.get ctx t.rp_count other);
    Array.iter
      (fun l ->
        Array.iter
          (fun triple ->
            Array.iter
              (fun b ->
                ignore
                  (Scan_util.flush_bag ctx b
                     ~keep:(fun p -> Bag.Hash_set.mem scanning p)
                     ~release:(fun ctx p -> P.release t.pool ctx p)
                     ~release_block:(fun blk -> P.release_block t.pool ctx blk)))
              triple)
          l.bags)
      t.locals

  (* Allocation-failure path with neutralization: rotate-and-drain like
     DEBRA, then force an epoch advance by signalling every laggard instead
     of waiting for the amortized one-per-operation check to reach it.  A
     crashed laggard (ESRCH) counts as permanently quiescent.  Under
     reliable signals one send per laggard suffices — the epoch may advance
     immediately, exactly the paper's fault-tolerance argument.  Under
     unreliable delivery the scan re-runs for a bounded number of rounds,
     resending and yielding in between so handlers can land; if the
     laggard's announcement never acknowledges, we degrade to whatever the
     rotations freed. *)
  let emergency_reclaim t ctx =
    let pid = ctx.Runtime.Ctx.pid in
    let n = Intf.Env.nprocs t.env in
    let g = t.env.Intf.Env.group in
    let l = t.locals.(pid) in
    let freed = ref 0 in
    let observe () =
      let e = Runtime.Svar.get ctx t.epoch in
      if epoch_of l.ann <> e then begin
        (* Move only the local mirror: publishing a newer epoch while
           mid-operation would be unsound (see Debra.emergency_reclaim). *)
        l.ann <- e lor (l.ann land 1);
        l.ops_since_check <- 0;
        l.check_next <- 0;
        freed := !freed + rotate_and_reclaim ~complete:true t ctx l
      end;
      e
    in
    let e = observe () in
    let self = Runtime.Shared_array.get ctx t.announce pid in
    if epoch_of self = e || quiescent_bit self then begin
      let reliable = not g.Runtime.Group.signals_unreliable in
      let rounds = ref (if reliable then 1 else (2 * n) + 8) in
      let advanced = ref false in
      while (not !advanced) && !rounds > 0 do
        decr rounds;
        let all_ok = ref true in
        for other = 0 to n - 1 do
          if other <> pid then begin
            let a = Runtime.Shared_array.get ctx t.announce other in
            if not (epoch_of a = e || quiescent_bit a) then
              match Runtime.Group.send_signal g ~from:ctx ~target:other with
              | false -> () (* ESRCH: crashed, permanently quiescent *)
              | true ->
                  Intf.Env.emit t.env ctx (Memory.Smr_event.Signal_sent other);
                  if not reliable then all_ok := false
          end
        done;
        if !all_ok then begin
          advanced := true;
          if Runtime.Svar.cas ctx t.epoch ~expect:e (e + 2) then begin
            Intf.Env.emit t.env ctx (Memory.Smr_event.Epoch_advance (e + 2));
            ignore (observe ())
          end
        end
        else Runtime.Ctx.work ctx 64 (* yield so pending handlers can run *)
      done
    end;
    !freed
end
