(** Non-blocking external binary search tree in the style of Ellen,
    Fatourou, Ruppert and van Breugel (PODC 2010) — the descriptor/flag/
    mark/help machinery used by the paper's balanced BST, without the
    rebalancing (uniform keys keep expected depth logarithmic; see
    DESIGN.md).

    Why this tree matters for the paper: searches can traverse pointers from
    retired nodes to other retired nodes, which is exactly the pattern that
    defeats plain hazard pointers (§3).  Under an HP-style reclaimer this
    implementation uses the evaluation's workaround — validate that the
    parent is unflagged and restart the whole operation on any suspicion —
    which costs HP its lock-free progress, as the paper discusses.

    Memory layout: three arenas (internal nodes, leaves, descriptors).  An
    internal node's [update] word packs (state, descriptor slot+generation)
    into one CASable integer; descriptors themselves are immutable once
    published.  Descriptors are reclaimed by retire-on-overwrite: the
    process whose CAS replaces the descriptor in an update word retires the
    old one (each word value is CASed out at most once, so each descriptor
    is retired exactly once, when the flag CAS or mark CAS that overwrites
    it succeeds).

    Each modify operation follows Fig. 5 of the paper: descriptors are
    allocated in a quiescent preamble, the body RProtects every record its
    help routine touches (then the descriptor last), and a [published] flag
    — set atomically-with-the-CAS from the signal handler's perspective —
    lets recovery decide between re-helping the published descriptor and
    restarting.

    Typestate tier: the tree uses the lifecycle half of
    {!Reclaim.Intf.RECORD_MANAGER.Typed} — typed allocation, sentinels,
    publication/unlink CASes and witness-consuming retire, plus [acquire]
    at the HP validation sites — but keeps raw dereferences: helping walks
    descriptors and possibly-retired records that no guard can witness
    (paper §3), which is precisely why this tree needs epoch-style schemes.
    The [enter_qstate] in [finish_op] likewise stays untyped: it runs after
    [run_op] returns, where no session witness is in scope. *)

module Make (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module T = RM.Typed

  (* Internal node fields *)
  let f_left = 0
  let f_right = 1
  let f_update = 2
  let c_ikey = 0

  (* Leaf fields *)
  let c_key = 0
  let c_value = 1

  (* Descriptor (Info) fields *)
  let c_tag = 0
  let c_gp = 1
  let c_p = 2
  let c_l = 3
  let c_new = 4
  let c_pupdate = 5

  let tag_iinfo = 1
  let tag_dinfo = 2

  (* Update-word states *)
  let clean = 0
  let iflag = 1
  let dflag = 2
  let mark = 3

  let inf1 = max_int - 1
  let inf2 = max_int

  type t = {
    rm : RM.t;
    internal : Memory.Arena.t;
    leaf : Memory.Arena.t;
    info : Memory.Arena.t;
    root : Memory.Ptr.t;
  }

  (* Update words pack (state, info slot+1, info generation).  Generation
     bits make stale descriptors compare unequal, mirroring the tagged
     pointers used everywhere else. *)

  let pack_info t p =
    if Memory.Ptr.is_null p then 0
    else begin
      assert (Memory.Ptr.arena_id p = Memory.Arena.heap_id t.info);
      ((Memory.Ptr.slot p + 1) lsl Memory.Ptr.gen_bits) lor Memory.Ptr.gen p
    end

  let pack t ~state ~info = (pack_info t info lsl 2) lor state
  let state_of w = w land 3

  let info_of t w =
    let body = w lsr 2 in
    let slot1 = body lsr Memory.Ptr.gen_bits in
    if slot1 = 0 then Memory.Ptr.null
    else
      Memory.Ptr.make
        ~arena:(Memory.Arena.heap_id t.info)
        ~slot:(slot1 - 1)
        ~gen:(body land Memory.Ptr.gen_mask)

  let create rm ~capacity =
    let env = RM.env rm in
    let heap = env.Reclaim.Intf.Env.heap in
    let internal =
      Memory.Heap.new_arena heap ~name:"bst.internal" ~mut_fields:3
        ~const_fields:1 ~capacity:(capacity + 2)
    in
    let leaf =
      Memory.Heap.new_arena heap ~name:"bst.leaf" ~mut_fields:0 ~const_fields:2
        ~capacity:(capacity + 3)
    in
    let info =
      Memory.Heap.new_arena heap ~name:"bst.info" ~mut_fields:0 ~const_fields:6
        ~capacity:(capacity + 2)
    in
    let ctx = Runtime.Group.ctx env.Reclaim.Intf.Env.group 0 in
    let t = { rm; internal; leaf; info; root = Memory.Ptr.null } in
    let l1 = T.alloc rm ctx leaf in
    T.init_const rm ctx leaf l1 c_key inf1;
    T.init_const rm ctx leaf l1 c_value 0;
    let l1 = T.sentinel rm ctx l1 in
    let l2 = T.alloc rm ctx leaf in
    T.init_const rm ctx leaf l2 c_key inf2;
    T.init_const rm ctx leaf l2 c_value 0;
    let l2 = T.sentinel rm ctx l2 in
    let root = T.alloc rm ctx internal in
    T.init_const rm ctx internal root c_ikey inf2;
    T.init rm ctx internal root f_left l1;
    T.init rm ctx internal root f_right l2;
    T.init rm ctx internal root f_update 0;
    { t with root = T.sentinel rm ctx root }

  let is_leaf t p = Memory.Ptr.arena_id p = Memory.Arena.heap_id t.leaf

  let key_of t ctx p =
    if is_leaf t p then Memory.Arena.get_const ctx t.leaf p c_key
    else Memory.Arena.get_const ctx t.internal p c_ikey

  let update_of t ctx p = Memory.Arena.read ctx t.internal p f_update
  let left_of t ctx p = Memory.Arena.read ctx t.internal p f_left
  let right_of t ctx p = Memory.Arena.read ctx t.internal p f_right

  exception Restart

  (* HP-style validation for a traversal step: the child was re-read from an
     unflagged parent.  Once a node is marked its update word never changes,
     and nodes are marked before they are retired, so [Clean] at validation
     time proves the child had not been retired when our announcement became
     visible.  Anything other than Clean is "suspicious" and restarts the
     operation — the paper's workaround, which forfeits lock-freedom. *)
  type edge = { mutable parent : Memory.Ptr.t; mutable child : Memory.Ptr.t }

  (* One [verify] closure per search, over the edge the next step protects:
     a closure per step would cost words on every node visited. *)
  let edge_verifier t ctx =
    let e = { parent = Memory.Ptr.null; child = Memory.Ptr.null } in
    let verify () =
      let parent = e.parent and child = e.child in
      state_of (update_of t ctx parent) = clean
      && (left_of t ctx parent = child || right_of t ctx parent = child)
    in
    (e, verify)

  let protect_child t ctx s (e, verify) ~parent ~child =
    e.parent <- parent;
    e.child <- child;
    match T.acquire t.rm ctx s child ~verify with
    | Some _ -> true
    | None -> false

  type found = {
    gp : Memory.Ptr.t;  (* null iff p is the root *)
    p : Memory.Ptr.t;
    l : Memory.Ptr.t;
    pupdate : int;
    gpupdate : int;
  }

  (* Search from the root.  Under HP, [gp], [p] and [l] are protected on
     return; epoch schemes traverse (possibly retired) nodes freely. *)
  let search t ctx s key =
    let unprotect_maybe p =
      if (not (Memory.Ptr.is_null p)) && p <> t.root then
        RM.unprotect t.rm ctx p
    in
    let ev = edge_verifier t ctx in
    let rec step gp gpupdate p pupdate l =
      if is_leaf t l then { gp; p; l; pupdate; gpupdate }
      else begin
        let gp' = p and gpupdate' = pupdate in
        let p' = l in
        let pupdate' = update_of t ctx p' in
        let l' =
          if key < key_of t ctx p' then left_of t ctx p'
          else right_of t ctx p'
        in
        if not (protect_child t ctx s ev ~parent:p' ~child:l') then
          raise Restart;
        unprotect_maybe gp;
        step gp' gpupdate' p' pupdate' l'
      end
    in
    let rec from_root () =
      let pupdate = update_of t ctx t.root in
      let l =
        if key < inf2 then left_of t ctx t.root else right_of t ctx t.root
      in
      if not (protect_child t ctx s ev ~parent:t.root ~child:l) then begin
        RM.unprotect_all t.rm ctx;
        from_root ()
      end
      else
        match step Memory.Ptr.null 0 t.root pupdate l with
        | found -> found
        | exception Restart ->
            RM.unprotect_all t.rm ctx;
            from_root ()
    in
    from_root ()

  (* The descriptor displaced by a successful update-word CAS is what that
     CAS unlinks: passing it to [cas_at ~unlinks] mints the witness the
     winner's retire consumes. *)
  let displaced t ~old_word ~new_word =
    let old_info = info_of t old_word and new_info = info_of t new_word in
    if (not (Memory.Ptr.is_null old_info)) && old_info <> new_info then
      [ old_info ]
    else []

  let retire_all t ctx ws = List.iter (fun w -> T.retire t.rm ctx w) ws

  (* Help routines.  [deep] tells whether we may recursively help unrelated
     operations: true in operation bodies, false in neutralization recovery,
     where only RProtected records may be touched. *)

  (* The child CAS replaces [l] under [p] by the new internal node, whose
     children are the new leaf and a copy of [l], as in EFRB: [l] itself
     never returns to the tree, so a helper that reaches this CAS late
     (after the insert completed and a delete spliced the copy back under
     [p]) finds no [l] to replace.  Re-parenting [l] instead lets that late
     CAS resurrect the deleted internal node.  The process whose CAS
     succeeds unlinked [l] and retires it. *)
  let help_insert t ctx op =
    let p = Memory.Arena.get_const ctx t.info op c_p in
    let l = Memory.Arena.get_const ctx t.info op c_l in
    let new_internal = Memory.Arena.get_const ctx t.info op c_new in
    (match
       if left_of t ctx p = l then Some f_left
       else if right_of t ctx p = l then Some f_right
       else None
     with
    | Some field -> (
        match
          T.cas_at t.rm ctx t.internal p field ~expect:l new_internal
            ~publishes:[] ~unlinks:[ l ]
        with
        | Some ws -> retire_all t ctx ws
        | None -> ())
    | None -> ());
    ignore
      (Memory.Arena.cas ctx t.internal p f_update
         ~expect:(pack t ~state:iflag ~info:op)
         (pack t ~state:clean ~info:op))

  let help_marked t ctx op =
    let gp = Memory.Arena.get_const ctx t.info op c_gp in
    let p = Memory.Arena.get_const ctx t.info op c_p in
    let l = Memory.Arena.get_const ctx t.info op c_l in
    let other =
      if right_of t ctx p = l then left_of t ctx p else right_of t ctx p
    in
    let unlink_child field =
      T.cas_at t.rm ctx t.internal gp field ~expect:p other ~publishes:[]
        ~unlinks:[ p; l ]
    in
    (match
       if left_of t ctx gp = p then unlink_child f_left
       else if right_of t ctx gp = p then unlink_child f_right
       else None
     with
    | Some ws ->
        (* This process performed the removal: it retires both nodes. *)
        retire_all t ctx ws
    | None -> ());
    ignore
      (Memory.Arena.cas ctx t.internal gp f_update
         ~expect:(pack t ~state:dflag ~info:op)
         (pack t ~state:clean ~info:op))

  let rec help_delete t ctx ~deep op =
    let gp = Memory.Arena.get_const ctx t.info op c_gp in
    let p = Memory.Arena.get_const ctx t.info op c_p in
    let pupdate = Memory.Arena.get_const ctx t.info op c_pupdate in
    let markw = pack t ~state:mark ~info:op in
    let marked =
      match
        T.cas_at t.rm ctx t.internal p f_update ~expect:pupdate markw
          ~publishes:[] ~unlinks:(displaced t ~old_word:pupdate ~new_word:markw)
      with
      | Some ws ->
          retire_all t ctx ws;
          true
      | None -> false
    in
    let current = update_of t ctx p in
    if marked || current = markw then begin
      help_marked t ctx op;
      true
    end
    else begin
      if deep then help t ctx current;
      ignore
        (Memory.Arena.cas ctx t.internal gp f_update
           ~expect:(pack t ~state:dflag ~info:op)
           (pack t ~state:clean ~info:op));
      false
    end

  (* Dispatch on a flagged update word to help an unrelated operation.

     Helping dereferences the other operation's descriptor and the records
     it names — records that may already be retired.  Epoch-style schemes
     make this safe (nothing a running operation can reach is freed), which
     is why they suit this tree.  Under an HP-style scheme there is no
     sound way to protect that chain (paper §3), so [help] does nothing and
     the caller's retry loop spins until the operation's owner completes it
     — the loss of lock-freedom the paper describes for HP. *)
  and help t ctx w =
    if RM.allows_retired_traversal then begin
      let st = state_of w in
      if st <> clean then begin
        let op = info_of t w in
        if st = iflag then help_insert t ctx op
        else if st = mark then help_marked t ctx op
        else ignore (help_delete t ctx ~deep:true op)
      end
    end

  (* Operation shells (paper Fig. 5). *)

  let finish_op t ctx =
    RM.enter_qstate t.rm ctx;
    if RM.supports_crash_recovery then RM.runprotect_all t.rm ctx;
    RM.unprotect_all t.rm ctx;
    ctx.Runtime.Ctx.stats.Runtime.Ctx.ops <-
      ctx.Runtime.Ctx.stats.Runtime.Ctx.ops + 1

  let contains t ctx key =
    let r =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          RM.runprotect_all t.rm ctx;
          RM.unprotect_all t.rm ctx;
          None)
        (fun s ->
          T.leave t.rm ctx s;
          let { l; _ } = search t ctx s key in
          key_of t ctx l = key)
    in
    finish_op t ctx;
    r

  let get t ctx key =
    let r =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          RM.runprotect_all t.rm ctx;
          RM.unprotect_all t.rm ctx;
          None)
        (fun s ->
          T.leave t.rm ctx s;
          let { l; _ } = search t ctx s key in
          if key_of t ctx l = key then
            Some (Memory.Arena.get_const ctx t.leaf l c_value)
          else None)
    in
    finish_op t ctx;
    r

  let rprotect_for_recovery t ctx ~records ~desc =
    if RM.supports_crash_recovery then begin
      List.iter
        (fun r -> if not (Memory.Ptr.is_null r) then RM.rprotect t.rm ctx r)
        records;
      RM.rprotect t.rm ctx desc (* the descriptor last: it implies the rest *)
    end

  let insert t ctx ~key ~value =
    assert (key < inf1);
    (* Quiescent preamble: allocate the four records of an insertion.  The
       fresh witnesses stay live across retries — only the successful flag
       CAS publishes (and spends) all four at once. *)
    let new_leaf = T.alloc t.rm ctx t.leaf in
    let new_leafp = T.fresh_ptr new_leaf in
    T.init_const t.rm ctx t.leaf new_leaf c_key key;
    T.init_const t.rm ctx t.leaf new_leaf c_value value;
    let new_internal = T.alloc t.rm ctx t.internal in
    let new_internalp = T.fresh_ptr new_internal in
    let sibling = T.alloc t.rm ctx t.leaf in
    let siblingp = T.fresh_ptr sibling in
    let op = T.alloc t.rm ctx t.info in
    let opp = T.fresh_ptr op in
    let published = ref false in
    let result =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          if !published then begin
            (* The descriptor is in the tree: finish our own operation using
               only RProtected records, then report success. *)
            help_insert t ctx opp;
            RM.runprotect_all t.rm ctx;
            RM.unprotect_all t.rm ctx;
            Some true
          end
          else begin
            RM.runprotect_all t.rm ctx;
            RM.unprotect_all t.rm ctx;
            None
          end)
        (fun s ->
          T.leave t.rm ctx s;
          let rec attempt () =
            let { p; l; pupdate; _ } = search t ctx s key in
            if key_of t ctx l = key then false
            else if state_of pupdate <> clean then begin
              help t ctx pupdate;
              RM.unprotect_all t.rm ctx;
              attempt ()
            end
            else begin
              let lkey = key_of t ctx l in
              (* [l]'s replacement copy; see [help_insert]. *)
              T.init_const t.rm ctx t.leaf sibling c_key lkey;
              T.init_const t.rm ctx t.leaf sibling c_value
                (Memory.Arena.get_const ctx t.leaf l c_value);
              T.init_const t.rm ctx t.internal new_internal c_ikey
                (max key lkey);
              if key < lkey then begin
                T.init t.rm ctx t.internal new_internal f_left new_leafp;
                T.init t.rm ctx t.internal new_internal f_right siblingp
              end
              else begin
                T.init t.rm ctx t.internal new_internal f_left siblingp;
                T.init t.rm ctx t.internal new_internal f_right new_leafp
              end;
              T.init t.rm ctx t.internal new_internal f_update 0;
              T.init_const t.rm ctx t.info op c_tag tag_iinfo;
              T.init_const t.rm ctx t.info op c_gp Memory.Ptr.null;
              T.init_const t.rm ctx t.info op c_p p;
              T.init_const t.rm ctx t.info op c_l l;
              T.init_const t.rm ctx t.info op c_new new_internalp;
              T.init_const t.rm ctx t.info op c_pupdate pupdate;
              rprotect_for_recovery t ctx ~records:[ p; l ] ~desc:opp;
              let flagged = pack t ~state:iflag ~info:opp in
              match
                T.cas_at t.rm ctx t.internal p f_update ~expect:pupdate flagged
                  ~publishes:[ op; new_internal; new_leaf; sibling ]
                  ~unlinks:(displaced t ~old_word:pupdate ~new_word:flagged)
              with
              | Some ws ->
                  published := true;
                  retire_all t ctx ws;
                  help_insert t ctx opp;
                  true
              | None ->
                  help t ctx (update_of t ctx p);
                  if RM.supports_crash_recovery then RM.runprotect_all t.rm ctx;
                  RM.unprotect_all t.rm ctx;
                  attempt ()
            end
          in
          attempt ())
    in
    finish_op t ctx;
    (* Quiescent postamble: an unsuccessful insert never published its
       records — return them to the pool. *)
    if not result then begin
      T.abandon t.rm ctx new_leaf;
      T.abandon t.rm ctx new_internal;
      T.abandon t.rm ctx sibling;
      T.abandon t.rm ctx op
    end;
    result

  type delete_outcome = Deleted | NotPresent | RetryOp

  let delete t ctx key =
    let rec op_loop () =
      (* Quiescent preamble: a fresh descriptor per published attempt. *)
      let op = T.alloc t.rm ctx t.info in
      let opp = T.fresh_ptr op in
      let published = ref false in
      let outcome =
        T.run_op t.rm ctx
          ~recover:(fun () ->
            if !published then begin
              let finished = help_delete t ctx ~deep:false opp in
              RM.runprotect_all t.rm ctx;
              RM.unprotect_all t.rm ctx;
              Some (if finished then Deleted else RetryOp)
            end
            else begin
              RM.runprotect_all t.rm ctx;
              RM.unprotect_all t.rm ctx;
              None
            end)
          (fun s ->
            T.leave t.rm ctx s;
            let rec attempt () =
              let { gp; p; l; pupdate; gpupdate } = search t ctx s key in
              if key_of t ctx l <> key then NotPresent
              else if state_of gpupdate <> clean then begin
                help t ctx gpupdate;
                RM.unprotect_all t.rm ctx;
                attempt ()
              end
              else if state_of pupdate <> clean then begin
                help t ctx pupdate;
                RM.unprotect_all t.rm ctx;
                attempt ()
              end
              else begin
                T.init_const t.rm ctx t.info op c_tag tag_dinfo;
                T.init_const t.rm ctx t.info op c_gp gp;
                T.init_const t.rm ctx t.info op c_p p;
                T.init_const t.rm ctx t.info op c_l l;
                T.init_const t.rm ctx t.info op c_new Memory.Ptr.null;
                T.init_const t.rm ctx t.info op c_pupdate pupdate;
                rprotect_for_recovery t ctx ~records:[ gp; p; l ] ~desc:opp;
                let flagged = pack t ~state:dflag ~info:opp in
                match
                  T.cas_at t.rm ctx t.internal gp f_update ~expect:gpupdate
                    flagged ~publishes:[ op ]
                    ~unlinks:(displaced t ~old_word:gpupdate ~new_word:flagged)
                with
                | Some ws ->
                    published := true;
                    retire_all t ctx ws;
                    if help_delete t ctx ~deep:true opp then Deleted
                    else RetryOp
                | None ->
                    help t ctx (update_of t ctx gp);
                    if RM.supports_crash_recovery then
                      RM.runprotect_all t.rm ctx;
                    RM.unprotect_all t.rm ctx;
                    attempt ()
              end
            in
            attempt ())
      in
      finish_op t ctx;
      match outcome with
      | Deleted -> true
      | NotPresent ->
          T.abandon t.rm ctx op;
          false
      | RetryOp -> op_loop ()
    in
    op_loop ()

  (* [remove] is [delete] returning the deleted leaf's value: the process
     whose dflag CAS wins read the (const) value just before flagging, so
     the unique winner learns it.  A separate spelling keeps [delete]'s
     instrumented access sequence — pinned by golden schedules —
     unchanged. *)
  let remove t ctx key =
    let rec op_loop () =
      let op = T.alloc t.rm ctx t.info in
      let opp = T.fresh_ptr op in
      let published = ref false in
      let captured = ref 0 in
      let outcome =
        T.run_op t.rm ctx
          ~recover:(fun () ->
            if !published then begin
              let finished = help_delete t ctx ~deep:false opp in
              RM.runprotect_all t.rm ctx;
              RM.unprotect_all t.rm ctx;
              Some (if finished then Deleted else RetryOp)
            end
            else begin
              RM.runprotect_all t.rm ctx;
              RM.unprotect_all t.rm ctx;
              None
            end)
          (fun s ->
            T.leave t.rm ctx s;
            let rec attempt () =
              let { gp; p; l; pupdate; gpupdate } = search t ctx s key in
              if key_of t ctx l <> key then NotPresent
              else if state_of gpupdate <> clean then begin
                help t ctx gpupdate;
                RM.unprotect_all t.rm ctx;
                attempt ()
              end
              else if state_of pupdate <> clean then begin
                help t ctx pupdate;
                RM.unprotect_all t.rm ctx;
                attempt ()
              end
              else begin
                captured := Memory.Arena.get_const ctx t.leaf l c_value;
                T.init_const t.rm ctx t.info op c_tag tag_dinfo;
                T.init_const t.rm ctx t.info op c_gp gp;
                T.init_const t.rm ctx t.info op c_p p;
                T.init_const t.rm ctx t.info op c_l l;
                T.init_const t.rm ctx t.info op c_new Memory.Ptr.null;
                T.init_const t.rm ctx t.info op c_pupdate pupdate;
                rprotect_for_recovery t ctx ~records:[ gp; p; l ] ~desc:opp;
                let flagged = pack t ~state:dflag ~info:opp in
                match
                  T.cas_at t.rm ctx t.internal gp f_update ~expect:gpupdate
                    flagged ~publishes:[ op ]
                    ~unlinks:(displaced t ~old_word:gpupdate ~new_word:flagged)
                with
                | Some ws ->
                    published := true;
                    retire_all t ctx ws;
                    if help_delete t ctx ~deep:true opp then Deleted
                    else RetryOp
                | None ->
                    help t ctx (update_of t ctx gp);
                    if RM.supports_crash_recovery then
                      RM.runprotect_all t.rm ctx;
                    RM.unprotect_all t.rm ctx;
                    attempt ()
              end
            in
            attempt ())
      in
      finish_op t ctx;
      match outcome with
      | Deleted -> Some !captured
      | NotPresent ->
          T.abandon t.rm ctx op;
          None
      | RetryOp -> op_loop ()
    in
    op_loop ()

  (* [fold_entry t ctx key ~f] finds the leaf and runs [f] inside the open
     session while (under HP) the leaf and its parent are still protected
     by the search.  [live ()] is true while the parent's update word is
     clean and still points at the leaf: the mark CAS on the parent is the
     delete's linearization point, and anything reachable from [value] is
     retired strictly after it — "parent still points at leaf" alone would
     NOT suffice, because an external-tree unlink removes the parent from
     the grandparent while the parent keeps pointing at the leaf. *)
  let fold_entry t ctx key ~f =
    let r =
      T.run_op t.rm ctx
        ~recover:(fun () ->
          RM.runprotect_all t.rm ctx;
          RM.unprotect_all t.rm ctx;
          None)
        (fun s ->
          T.leave t.rm ctx s;
          let { p; l; _ } = search t ctx s key in
          if key_of t ctx l = key then begin
            let value = Memory.Arena.get_const ctx t.leaf l c_value in
            let live () =
              state_of (update_of t ctx p) = clean
              && (left_of t ctx p = l || right_of t ctx p = l)
            in
            Some (f s ~value ~live)
          end
          else None)
    in
    finish_op t ctx;
    r

  (* Uninstrumented helpers for tests. *)

  let to_list t =
    let rec go acc p =
      if is_leaf t p then
        let k = Memory.Arena.peek_const t.leaf p c_key in
        if k >= inf1 then acc else k :: acc
      else
        let acc = go acc (Memory.Arena.peek t.internal p f_left) in
        go acc (Memory.Arena.peek t.internal p f_right)
    in
    List.rev (go [] t.root)

  let size t = List.length (to_list t)

  exception Broken of string

  let check_invariants t =
    (* BST order: every leaf key within (lo, hi]; reachable nodes valid.
       The tree is unbalanced, so a path can legally be as long as the
       number of internal nodes ever allocated; anything beyond that is a
       cycle. *)
    let max_depth = Memory.Arena.capacity t.internal + 2 in
    let rec go p lo hi depth =
      if depth > max_depth then raise (Broken "path longer than the arena: cycle");
      if is_leaf t p then begin
        if not (Memory.Arena.is_valid t.leaf p) then
          raise (Broken "reachable freed leaf");
        let k = Memory.Arena.peek_const t.leaf p c_key in
        if not (k > lo && k <= hi) then raise (Broken "leaf out of range")
      end
      else begin
        if not (Memory.Arena.is_valid t.internal p) then
          raise (Broken "reachable freed internal node");
        let k = Memory.Arena.peek_const t.internal p c_ikey in
        if not (k > lo && k <= hi) then raise (Broken "internal out of range");
        go (Memory.Arena.peek t.internal p f_left) lo (k - 1) (depth + 1);
        go (Memory.Arena.peek t.internal p f_right) (k - 1) hi (depth + 1)
      end
    in
    go t.root min_int max_int 0
end
