(* A deliberately protocol-violating external BST, used to prove sanitized
   exploration sharp (test_lincheck.ml).

   The structure bypasses the typestate surface entirely: it allocates,
   links and retires nodes through the raw Record Manager API, and its
   traversals dereference shared nodes without ever acquiring a guard (no
   protect, no validation) — the classic unprotected-deref bug that
   hazard-class schemes exist to prevent.  Under HP, a reader that crosses
   a node another process retired must be rejected with
   [Unprotected_access]. *)

module Make (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  let f_left = 0
  let f_right = 1
  let c_key = 0

  type t = { rm : RM.t; arena : Memory.Arena.t; root : Memory.Ptr.t }

  let create rm ~capacity =
    let env = RM.env rm in
    let ctx = Runtime.Group.ctx env.Reclaim.Intf.Env.group 0 in
    let arena =
      Memory.Heap.new_arena env.Reclaim.Intf.Env.heap ~name:"mutant_bst.node"
        ~mut_fields:2 ~const_fields:1 ~capacity
    in
    let root = RM.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena root c_key min_int;
    Memory.Arena.write ctx arena root f_left Memory.Ptr.null;
    Memory.Arena.write ctx arena root f_right
      Memory.Ptr.null;
    { rm; arena; root }

  let key_of t ctx p = Memory.Arena.get_const ctx t.arena p c_key

  let child t ctx p ~key =
    let f = if key < key_of t ctx p then f_left else f_right in
    (f, Memory.Arena.read ctx t.arena p f)

  (* Unprotected walk: returns the parent of the first null child slot on
     [key]'s search path, or the node holding [key]. *)
  let rec locate t ctx p ~key =
    let f, c = child t ctx p ~key in
    if Memory.Ptr.is_null c then `Slot (p, f)
    else if key_of t ctx c = key then `Found (p, c)
    else locate t ctx c ~key

  let insert t ctx ~key =
    RM.leave_qstate t.rm ctx;
    let result =
      match locate t ctx t.root ~key with
      | `Found _ -> false
      | `Slot (parent, f) ->
          let node = RM.alloc t.rm ctx t.arena in
          Memory.Arena.set_const ctx t.arena node c_key key;
          Memory.Arena.write ctx t.arena node f_left
            Memory.Ptr.null;
          Memory.Arena.write ctx t.arena node f_right
            Memory.Ptr.null;
          Memory.Arena.cas ctx t.arena parent f
            ~expect:Memory.Ptr.null
            node
    in
    RM.enter_qstate t.rm ctx;
    result

  let contains t ctx key =
    RM.leave_qstate t.rm ctx;
    let result =
      match locate t ctx t.root ~key with `Found _ -> true | `Slot _ -> false
    in
    RM.enter_qstate t.rm ctx;
    result

  (* Leaf-only delete: unlink with a raw CAS, then a raw retire. *)
  let delete t ctx key =
    RM.leave_qstate t.rm ctx;
    let result =
      match locate t ctx t.root ~key with
      | `Slot _ -> false
      | `Found (parent, node) ->
          let left = Memory.Arena.read ctx t.arena node f_left in
          let right = Memory.Arena.read ctx t.arena node f_right in
          if
            Memory.Ptr.is_null left && Memory.Ptr.is_null right
          then begin
            let f =
              if key < key_of t ctx parent then f_left else f_right
            in
            if
              Memory.Arena.cas ctx t.arena parent f
                ~expect:node
                Memory.Ptr.null
            then begin
              RM.retire t.rm ctx node;
              true
            end
            else false
          end
          else false
    in
    RM.enter_qstate t.rm ctx;
    result
end
