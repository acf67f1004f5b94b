(** Sharded in-memory KV/session store over the SET-face structures — the
    Record Manager's first out-of-harness embedding (ROADMAP: "a real
    service on top"), written entirely against the typestate API
    ({!Reclaim.Intf.RECORD_MANAGER.Typed}): payload records are allocated
    through [fresh] witnesses, read under [guard] witnesses chained off the
    index structure's still-open session, and retired only through the
    [unlinked] witness their unique remover mints.

    {b Layout.}  Each shard is an independent Record Manager: its own
    {!Memory.Heap}, {!Reclaim.Intf.Env} and [RM.t], an index structure
    (any SET-face structure, selected by name — skip list, EFRB BST,
    Harris-Michael list or the lock-free hash set) mapping encoded keys
    ({!Codec.encode_key}) to payload pointers, and one payload arena
    holding the string key/value bytes plus the TTL deadline in const
    fields.  Per-shard heaps are forced by the 4-bit arena id in the
    tagged pointers (at most 16 arenas per heap) and are exactly the
    "key-range sharding across record managers" shape: reclamation
    pressure on one shard never scans another's announcements.

    {b Routing} is a fixed Fibonacci-style mix of the encoded key followed
    by a range partition of the mixed space: shard boundaries are fixed
    fractions of [0, max_int], so the key→shard map is deterministic and
    rebalance-free.

    {b Read protocol.}  [get] runs inside the index structure's session via
    [fold_entry]: while the index node is guarded, the payload pointer
    stored in its value is protected with [T.acquire ~verify:live], where
    [live] is the structure's "this node is not yet logically deleted"
    check.  Epoch schemes grant for free (anything observed in-window
    outlives the window); hazard-style schemes are sound because a payload
    is retired strictly {e after} its index entry's delete linearizes, so
    an announcement validated by [live] happens-before the remover's scan.

    {b Write protocol.}  [put] allocates and initializes the payload in a
    quiescent preamble, [expose]s the fresh witness (the index insert's
    publishing CAS is the physical publication), then upserts: insert, or
    remove-the-old-entry-and-retry.  The remover of an index entry is
    unique (the structures' value-returning [remove]), owns the old
    payload, and retires it in a standalone typed operation whose
    unlink-and-retire window is masked so it happens exactly once under
    neutralization.

    {b TTL expiry} is lazy, memcached-style: a read that finds the
    deadline passed removes the entry and retires the payload (driving
    retire traffic through the unlink witness).  A concurrent re-put can
    race the expiring reader's remove and lose its fresh entry — the
    documented lazy-expiry race (the reader still owns whatever it
    removed, so memory safety is unaffected).

    {b Signals.}  With several RMs on one group, each reclaimer's
    [create] overwrites the contexts' signal handler slot, so [make_shard]
    {e chains} them: after creating a shard's RM it composes the newly
    installed handler with whatever was there before, and one delivered
    signal runs every shard's handler in creation order.  A handler that
    aborts the interrupted operation ({!Runtime.Ctx.Neutralized} — DEBRA+
    on the one shard where this process is mid-operation) does not
    silence its siblings: the abort is caught, the remaining handlers
    run, and it is re-raised at the end of the chain.  Without the chain,
    a collector whose handler lives in an earlier slot (ThreadScan
    waiting for ack writes, DEBRA+ polling an announcement) waits on a
    handler that never runs — a cross-shard wedge.

    Under reliable delivery DEBRA+ counts one successful send as a
    completed neutralization — unsound if the handler consults the wrong
    RM's quiescent bit — so [create] also switches the group to
    acknowledgement-based (unreliable) delivery whenever the scheme can
    neutralize, exactly as the lazy skip list does for its masked lock
    windows (which the retire window here also needs). *)

module Make (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module T = RM.Typed
  module Face = Workload.Set_adapter.Face (RM)

  type shard = {
    rm : RM.t;
    heap : Memory.Heap.t;
    payload : Memory.Arena.t;
    insert : Runtime.Ctx.t -> key:int -> value:int -> bool;
    remove : Runtime.Ctx.t -> int -> int option;
    fold :
      'a.
      Runtime.Ctx.t ->
      int ->
      f:(T.session -> value:int -> live:(unit -> bool) -> 'a) ->
      'a option;
    size : unit -> int;
    check : unit -> unit;
  }

  type t = {
    shards : shard array;
    structure : string;
    payload_words : int;
    max_bytes : int;  (* key + value bytes a payload record can carry *)
  }

  let default_params structure =
    let base = Reclaim.Intf.Params.default in
    (* Worst-case protection footprint plus one slot for the chained
       payload guard. *)
    let slots =
      match structure with
      | "skiplist" -> (2 * Ds.Skiplist.max_level) + 10
      | _ -> max base.Reclaim.Intf.Params.hp_slots 10
    in
    { base with Reclaim.Intf.Params.hp_slots = slots }

  let make_shard (module S : Face.SET) ~params ~group ~capacity ~payload_words
      =
    let heap = Memory.Heap.create () in
    let env = Reclaim.Intf.Env.create ~params group heap in
    (* Chain signal handlers across shards (see the header): every RM
       overwrites the per-context handler slot, so compose the handler
       this RM installs with whatever was installed before it.  An abort
       raised by one shard's handler is deferred until the whole chain has
       run, so no shard's collector starves on a sibling's raise. *)
    let prev =
      Array.map (fun c -> c.Runtime.Ctx.handler) group.Runtime.Group.ctxs
    in
    let rm = RM.create env in
    Array.iteri
      (fun i c ->
        let installed = c.Runtime.Ctx.handler in
        if installed != prev.(i) then
          c.Runtime.Ctx.handler <-
            (fun c' ->
              let aborted = ref false in
              (try prev.(i) c' with Runtime.Ctx.Neutralized -> aborted := true);
              (try installed c' with Runtime.Ctx.Neutralized -> aborted := true);
              if !aborted then raise Runtime.Ctx.Neutralized))
      group.Runtime.Group.ctxs;
    (* Headroom above the live set: retired payloads sit in limbo until
       their scheme frees them, and allocation failure falls back to the
       record manager's emergency reclamation. *)
    let payload =
      Memory.Heap.new_arena heap ~name:"kv.payload" ~mut_fields:0
        ~const_fields:(Codec.c_data + payload_words)
        ~capacity:(capacity + max 1024 (capacity / 2))
    in
    let s = S.create rm ~capacity in
    {
      rm;
      heap;
      payload;
      insert = (fun ctx ~key ~value -> S.insert s ctx ~key ~value);
      remove = (fun ctx k -> S.remove s ctx k);
      fold = (fun ctx k ~f -> S.fold_entry s ctx k ~f);
      size = (fun () -> S.size s);
      check = (fun () -> S.check_invariants s);
    }

  let structure_names = Face.names

  let create ?(structure = "skiplist") ?params ?(payload_words = 10)
      ~shards ~capacity_per_shard ~group () =
    if shards < 1 then invalid_arg "Store.create: shards must be >= 1";
    if payload_words < 1 then
      invalid_arg "Store.create: payload_words must be >= 1";
    let face =
      match Face.by_name structure with
      | Some m -> m
      | None ->
          invalid_arg
            (Printf.sprintf "Store.create: unknown structure %S (want %s)"
               structure
               (String.concat "|" Face.names))
    in
    let params =
      match params with Some p -> p | None -> default_params structure
    in
    (* See the header: multiple RMs share this group's single signal
       handler slot, and the retire window below is masked — both require
       acknowledgement-based delivery when the scheme can neutralize. *)
    if RM.supports_crash_recovery then
      group.Runtime.Group.signals_unreliable <- true;
    {
      shards =
        Array.init shards (fun _ ->
            make_shard face ~params ~group ~capacity:capacity_per_shard
              ~payload_words);
      structure;
      payload_words;
      max_bytes = payload_words * Codec.word_bytes;
    }

  let nshards t = Array.length t.shards

  (* Fibonacci mix, then a range partition of the mixed space. *)
  let mix k = k * 0x2545F4914F6CDD1D land max_int
  let shard_index t ek = mix ek / ((max_int / Array.length t.shards) + 1)
  let shard_of_key t key = shard_index t (Codec.encode_key key)

  (* Retire an index-removed payload: a standalone typed operation.  The
     caller is the unique winner of the index remove, so it owns [p]; the
     declaration-style [unlink_locked] mints the witness.  The window is
     masked so a neutralization cannot land between the witness mint and
     the retire (the witness would be lost); quiescence is entered before
     unmasking, so a deferred signal is then legitimately ignored. *)
  let retire_payload sh ctx p =
    T.run_op sh.rm ctx
      ~recover:(fun () ->
        T.release_all sh.rm ctx;
        None)
      (fun s ->
        T.leave sh.rm ctx s;
        Runtime.Ctx.mask ctx;
        let w = T.unlink_locked sh.rm ctx s p in
        T.retire sh.rm ctx w;
        T.enter sh.rm ctx s;
        Runtime.Ctx.unmask ctx)

  (* Remove [ek]'s index entry and retire its payload.  True if this
     process won the removal. *)
  let drop sh ctx ek =
    match sh.remove ctx ek with
    | Some pw ->
        retire_payload sh ctx pw;
        true
    | None -> false

  let put ?ttl t ctx ~key ~value =
    let klen = String.length key and vlen = String.length value in
    if klen = 0 then invalid_arg "Store.put: empty key";
    if klen + vlen > t.max_bytes then
      invalid_arg
        (Printf.sprintf
           "Store.put: key+value is %d bytes, payload records carry %d"
           (klen + vlen) t.max_bytes);
    let ek = Codec.encode_key key in
    let sh = t.shards.(shard_index t ek) in
    (* Quiescent preamble: allocate and fill the payload record. *)
    let f = T.alloc sh.rm ctx sh.payload in
    let deadline =
      match ttl with
      | None -> max_int
      | Some cycles -> Runtime.Ctx.now ctx + cycles
    in
    T.init_const sh.rm ctx sh.payload f Codec.c_expiry deadline;
    T.init_const sh.rm ctx sh.payload f Codec.c_meta (Codec.meta ~klen ~vlen);
    Array.iteri
      (fun i w -> T.init_const sh.rm ctx sh.payload f (Codec.c_data + i) w)
      (Codec.data_words ~key ~value);
    (* The index insert's publishing CAS is the physical publication of
       this record; the witness is spent here, where the handoff to the
       index layer happens. *)
    let p = T.expose sh.rm ctx f in
    (* Upsert: insert wins on a fresh key; otherwise remove the old entry
       (retiring its payload) and retry.  Not atomic as a replacement — a
       concurrent reader can observe the gap — documented in DESIGN.md. *)
    let rec link () =
      if sh.insert ctx ~key:ek ~value:p then ()
      else begin
        ignore (drop sh ctx ek);
        link ()
      end
    in
    link ()

  type 'a lookup = Retry | Expired | Miss | Hit of 'a

  let lookup_once sh ctx ek ~now_ =
    match
      sh.fold ctx ek ~f:(fun s ~value ~live ->
          (* Chain the payload guard off the index node's liveness. *)
          match T.acquire sh.rm ctx s value ~verify:live with
          | None -> Retry
          | Some g ->
              let deadline =
                T.get_const sh.rm ctx sh.payload g Codec.c_expiry
              in
              if now_ >= deadline then Expired
              else begin
                let meta = T.get_const sh.rm ctx sh.payload g Codec.c_meta in
                let kv =
                  Codec.decode ~meta
                    ~read:(fun i ->
                      T.get_const sh.rm ctx sh.payload g (Codec.c_data + i))
                in
                Hit kv
              end)
    with
    | None -> Miss
    | Some r -> r

  let rec get t ctx key =
    let ek = Codec.encode_key key in
    let sh = t.shards.(shard_index t ek) in
    match lookup_once sh ctx ek ~now_:(Runtime.Ctx.now ctx) with
    | Miss -> None
    | Retry ->
        (* The index entry died between the guard and the payload acquire:
           a remover is concurrently making progress.  Retry the lookup. *)
        get t ctx key
    | Expired ->
        (* Lazy expiry: the reader that finds a dead session removes it and
           retires the payload, then reports a miss. *)
        ignore (drop sh ctx ek);
        None
    | Hit (k, v) ->
        (* Long keys are stored by 56-bit hash: verify and treat a
           collision as a miss (see Codec). *)
        if String.equal k key then Some v else None

  let delete t ctx key =
    let ek = Codec.encode_key key in
    let sh = t.shards.(shard_index t ek) in
    drop sh ctx ek

  (* Uninstrumented inspection (quiescent callers only). *)

  let size t = Array.fold_left (fun acc sh -> acc + sh.size ()) 0 t.shards
  let check_invariants t = Array.iter (fun sh -> sh.check ()) t.shards
  let limbo t = Array.fold_left (fun a sh -> a + RM.limbo_size sh.rm) 0 t.shards
  let shard_limbo t k = RM.limbo_size t.shards.(k).rm
  let shard_pool t k = RM.pool_population t.shards.(k).rm
  let shard_pressure t k = RM.pressure t.shards.(k).rm

  let pressure t =
    let acc = Reclaim.Intf.Pressure.create () in
    Array.iter
      (fun sh ->
        let p = RM.pressure sh.rm in
        acc.Reclaim.Intf.Pressure.alloc_retries <-
          acc.Reclaim.Intf.Pressure.alloc_retries
          + p.Reclaim.Intf.Pressure.alloc_retries;
        acc.Reclaim.Intf.Pressure.emergency_reclaims <-
          acc.Reclaim.Intf.Pressure.emergency_reclaims
          + p.Reclaim.Intf.Pressure.emergency_reclaims;
        acc.Reclaim.Intf.Pressure.emergency_freed <-
          acc.Reclaim.Intf.Pressure.emergency_freed
          + p.Reclaim.Intf.Pressure.emergency_freed)
      t.shards;
    acc

  (* Watermark escalation entry point: force reclamation work on one
     shard now, mid-traffic, without waiting for an allocation failure. *)
  let emergency_reclaim t ctx ~shard = RM.emergency_reclaim t.shards.(shard).rm ctx

  (* True while [ctx]'s process is mid-operation on any shard — the
     [in_op] predicate chaos' [In_operation] crash trigger wants. *)
  let in_operation t ctx =
    Array.exists (fun sh -> not (RM.is_quiescent sh.rm ctx)) t.shards

  (* Straggler primitive for the overload campaign: park mid-operation on
     one shard for [cycles], pinning that shard's epoch for the duration
     (the E-stall scenario scoped to a single record manager).  On wake
     the first instrumented access delivers any pending neutralization —
     [run_op]'s recovery shell absorbs the abort. *)
  let hold_shard t ctx ~shard ~cycles =
    let sh = t.shards.(shard) in
    T.run_op sh.rm ctx
      ~recover:(fun () ->
        T.release_all sh.rm ctx;
        Some ())
      (fun s ->
        T.leave sh.rm ctx s;
        Runtime.Ctx.stall ctx cycles;
        Runtime.Ctx.work ctx 1;
        T.enter sh.rm ctx s)

  let bytes_claimed t =
    Array.fold_left (fun a sh -> a + Memory.Heap.bytes_claimed sh.heap) 0
      t.shards

  let shard_sizes t = Array.map (fun sh -> sh.size ()) t.shards
  let heaps t = Array.map (fun sh -> sh.heap) t.shards

  (* Quiescent shutdown helper: drain what every shard's scheme will part
     with (bounded leave/enter rounds then a flush per shard). *)
  let flush t ctx =
    Array.iter
      (fun sh ->
        for _ = 1 to 4 do
          RM.leave_qstate sh.rm ctx;
          RM.enter_qstate sh.rm ctx
        done;
        RM.flush sh.rm ctx)
      t.shards
end
