(** DEBRA+: fault-tolerant distributed epoch-based reclamation (paper §5,
    Fig. 6): DEBRA's epoch core ({!Debra.Core}) plus §5's additions.

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
    laggard, so the epoch keeps advancing even across crashes.

    Everything else — epoch, announcements, bag triples, [leave_qstate],
    [retire], the gauges — is the core's.  This file holds only:
    - the signal handler, installed by [create];
    - the RProtect rows: [rprotect], [runprotect_all], [is_rprotected];
    - the core's [rotate] hook: the threshold-gated partition-and-release;
    - its [lagging] hook, [suspect_neutralized], and its [passed] hook,
      which acknowledges a pending neutralization;
    - the signalling rounds of [emergency_reclaim];
    - the rprotect [keep] of [flush]. *)

let name = "debra+"

let discipline = Debra.discipline

(* §5: once a process' limbo passes the suspect threshold it neutralizes
   every laggard, and a crashed one answers ESRCH, so the epoch keeps
   advancing past a stopped process.  At most n² + O(n) blocks of B
   records are trapped across the m = 3 limbo bags of each process: the
   O(mn²) bound, with its constant made concrete as m·n²·B. *)
let robustness =
  Intf.Robustness.Bounded
    (fun ~n params -> 3 * n * n * params.Intf.Params.block_capacity)

(* Blocks beyond the n·k records a scan can keep before one pays off. *)
let scan_blocks_slack = 1

(* The §5 state the core carries for DEBRA+. *)
type ext = {
  rp_rows : Runtime.Shared_array.t array;  (* RProtected[pid] *)
  rp_count : Runtime.Shared_array.t;  (* published row sizes, padded *)
  scanning : Bag.Hash_set.t array;  (* per-process scratch for scans *)
  scan_threshold : int;  (* blocks *)
  sig_attempts : int array array;  (* [pid][target] resends since last ack *)
  sig_last : int array array;  (* [pid][target] virtual time of last resend *)
}

module Make (P : Intf.POOL) : Intf.RECLAIMER with module Pool = P = struct
  module Pool = P

  include Debra.Core (P) (struct type t = ext end)

  let name = name
  let supports_crash_recovery = true

  let current_blocks l =
    Array.fold_left
      (fun acc triple -> acc + Bag.Blockbag.size_in_blocks triple.(l.index))
      0 l.bags

  (* Limited hazard pointers for recovery (single-writer rows). *)

  let rprotect t ctx p =
    let pid = ctx.Runtime.Ctx.pid in
    let c = Runtime.Shared_array.peek t.x.rp_count pid in
    if c >= Runtime.Shared_array.length t.x.rp_rows.(pid) then
      invalid_arg "Debra_plus.rprotect: out of RProtect slots (raise hp_slots)";
    Runtime.Shared_array.set ctx t.x.rp_rows.(pid) c (Memory.Ptr.unmark p);
    Runtime.Shared_array.set ctx t.x.rp_count pid (c + 1);
    Runtime.Ctx.fence ctx;
    (* After the count write: the announcement is now visible to scans. *)
    if Runtime.Ctx.observed ctx then
      Intf.Env.emit t.env ctx (Memory.Smr_event.Rprotect (Memory.Ptr.unmark p))

  let runprotect_all t ctx =
    (* Before the count write: the announcements are still visible. *)
    Intf.Env.emit t.env ctx Memory.Smr_event.Runprotect_all;
    Runtime.Shared_array.set ctx t.x.rp_count ctx.Runtime.Ctx.pid 0

  let is_rprotected t ctx p =
    let pid = ctx.Runtime.Ctx.pid in
    let c = Runtime.Shared_array.get ctx t.x.rp_count pid in
    let p = Memory.Ptr.unmark p in
    let rec go i =
      if i >= c then false
      else if Runtime.Shared_array.get ctx t.x.rp_rows.(pid) i = p then true
      else go (i + 1)
    in
    go 0

  (* Hash every rprotected record of every process into our scratch set. *)
  let collect t ctx =
    let scanning = t.x.scanning.(ctx.Runtime.Ctx.pid) in
    Scan_util.collect_announcements ctx ~into:scanning
      ~nprocs:(Intf.Env.nprocs t.env)
      ~row:(fun other -> t.x.rp_rows.(other))
      ~count:(fun ctx other -> Runtime.Shared_array.get ctx t.x.rp_count other);
    scanning

  (* When the freshly-rotated current bag is big enough to amortize a full
     RProtect scan, partition out the protected records and bulk-transfer
     the full blocks behind them.  With [complete] (the allocation-failure
     path) the scan runs regardless of the threshold and the partial head
     blocks are drained record-by-record too, still keeping every
     rprotected record in limbo. *)
  let rotate t ctx l complete =
    if complete || current_blocks l >= t.x.scan_threshold then begin
      let scanning = collect t ctx in
      let release_block b = P.release_block t.pool ctx b in
      Array.fold_left
        (fun released triple ->
          let bag = triple.(l.index) in
          let released =
            released
            + Scan_util.partition_and_release ctx bag ~protected:scanning
                ~release_block
          in
          if complete then
            released
            + Scan_util.flush_bag ctx bag
                ~keep:(fun p -> Bag.Hash_set.mem scanning p)
                ~release:(fun ctx p -> P.release t.pool ctx p)
                ~release_block
          else released)
        0 l.bags
    end
    else 0

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
           let pid = ctx.Runtime.Ctx.pid in
           let attempts = t.x.sig_attempts.(pid) in
           let last = t.x.sig_last.(pid) in
           let now = Runtime.Ctx.now ctx in
           let a = attempts.(other) in
           if a = 0 || now - last.(other) >= 64 * (1 lsl min a 10) then
             (match Runtime.Group.send_signal g ~from:ctx ~target:other with
             | true ->
                 Intf.Env.emit t.env ctx (Memory.Smr_event.Signal_sent other);
                 attempts.(other) <- a + 1;
                 last.(other) <- now;
                 false
             | false -> true)
           else false
         end
       end

  let lagging t ctx l other =
    other <> ctx.Runtime.Ctx.pid && suspect_neutralized t ctx l other

  (* Any pending neutralization of [other] is acknowledged. *)
  let passed t ctx other = t.x.sig_attempts.(ctx.Runtime.Ctx.pid).(other) <- 0

  let create env pool =
    let n = Intf.Env.nprocs env in
    let params = env.Intf.Env.params in
    let k = params.Intf.Params.hp_slots in
    let b = params.Intf.Params.block_capacity in
    let x =
      {
        rp_rows = Runtime.Shared_array.rows n k;
        rp_count = Runtime.Shared_array.create ~padded:true n;
        scanning = Array.init n (fun _ -> Bag.Hash_set.create ~expected:(n * k));
        scan_threshold = ((n * k) + b - 1) / b + scan_blocks_slack;
        sig_attempts = Array.make_matrix n n 0;
        sig_last = Array.make_matrix n n 0;
      }
    in
    let t = make env pool x ~rotate ~lagging ~passed in
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

  (* Records rprotected by an unfinished recovery stay in limbo; under the
     quiescent-shutdown contract all rp rows of {e surviving} processes are
     empty and the bags drain completely.  A process that crashed
     mid-recovery is permanently non-quiescent: its rp row is still
     published, so the records it announced are kept in limbo rather than
     freed — the crash-leak accounting the leak ledger reports as remaining
     limbo, bounded by hp_slots per crashed process. *)
  let flush t ctx =
    let scanning = collect t ctx in
    flush_bags t ctx ~keep:(fun p -> Bag.Hash_set.mem scanning p)

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
    let e = observe t ctx l freed in
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
          if try_advance t ctx e then ignore (observe t ctx l freed)
        end
        else Runtime.Ctx.work ctx 64 (* yield so pending handlers can run *)
      done
    end;
    !freed
end
