(* Property and unit tests for the memory substrate: pointer packing, the
   arena lifecycle (Fig. 1 of the paper), generation-based use-after-free
   detection, and the virtual address space. *)

let ctx () = Runtime.Ctx.make ~pid:0 ~nprocs:1 ~seed:1

(* Pointer packing roundtrips. *)
let prop_ptr_roundtrip =
  QCheck.Test.make ~name:"ptr pack/unpack roundtrip" ~count:500
    QCheck.(
      quad (int_bound (Memory.Ptr.max_arenas - 1)) (int_bound 1_000_000)
        (int_bound Memory.Ptr.gen_mask) bool)
    (fun (arena, slot, gen, marked) ->
      let p = Memory.Ptr.make ~arena ~slot ~gen in
      let p = if marked then Memory.Ptr.mark p else p in
      Memory.Ptr.arena_id p = arena
      && Memory.Ptr.slot p = slot
      && Memory.Ptr.gen p = gen
      && Memory.Ptr.is_marked p = marked
      && (not (Memory.Ptr.is_null p))
      && Memory.Ptr.unmark (Memory.Ptr.mark p) = Memory.Ptr.unmark p)

let prop_ptr_distinct =
  QCheck.Test.make ~name:"distinct (slot,gen) make distinct pointers" ~count:200
    QCheck.(pair (pair small_nat small_nat) (pair small_nat small_nat))
    (fun ((s1, g1), (s2, g2)) ->
      let p1 = Memory.Ptr.make ~arena:0 ~slot:s1 ~gen:g1 in
      let p2 = Memory.Ptr.make ~arena:0 ~slot:s2 ~gen:g2 in
      (s1 = s2 && g1 = g2) = (p1 = p2))

let test_null () =
  Alcotest.(check bool) "null is null" true (Memory.Ptr.is_null Memory.Ptr.null);
  Alcotest.(check bool) "marked null is null" true
    (Memory.Ptr.is_null (Memory.Ptr.mark Memory.Ptr.null));
  Alcotest.(check bool) "real ptr is not null" false
    (Memory.Ptr.is_null (Memory.Ptr.make ~arena:0 ~slot:0 ~gen:0))

(* Arena lifecycle *)

let mk_arena () =
  Memory.Arena.create ~heap_id:0 ~name:"t" ~mut_fields:2 ~const_fields:1
    ~capacity:64 ()

let test_lifecycle () =
  let c = ctx () in
  let a = mk_arena () in
  let p = Memory.Arena.claim_fresh c a in
  Memory.Arena.write c a p 0 42;
  Memory.Arena.set_const c a p 0 9;
  Alcotest.(check int) "read" 42 (Memory.Arena.read c a p 0);
  Alcotest.(check int) "const" 9 (Memory.Arena.get_const c a p 0);
  Alcotest.(check bool) "cas ok" true
    (Memory.Arena.cas c a p 0 ~expect:42 43);
  Alcotest.(check bool) "cas fail" false
    (Memory.Arena.cas c a p 0 ~expect:42 44);
  Alcotest.(check int) "live" 1 (Memory.Arena.live_records a);
  Memory.Arena.release c a p ~recycle:true;
  Alcotest.(check int) "live after free" 0 (Memory.Arena.live_records a);
  (* Any access through the stale pointer must raise. *)
  Alcotest.check_raises "read after free"
    (Memory.Arena.Use_after_free
       (Printf.sprintf "t: ptr %s (slot state=%d gen=%d)"
          (Memory.Ptr.to_string p) 0 1))
    (fun () -> ignore (Memory.Arena.read c a p 0));
  (* Double free must raise. *)
  (match Memory.Arena.release c a p ~recycle:true with
  | () -> Alcotest.fail "double free not detected"
  | exception Memory.Arena.Double_free _ -> ());
  (* Recycling hands out the same slot with a new generation. *)
  match Memory.Arena.claim_recycled c a with
  | None -> Alcotest.fail "free list empty"
  | Some p' ->
      Alcotest.(check int) "same slot" (Memory.Ptr.slot p) (Memory.Ptr.slot p');
      Alcotest.(check bool) "new generation" true
        (Memory.Ptr.gen p' <> Memory.Ptr.gen p)

let test_stale_cas_fails () =
  (* The ABA guard: a CAS through a stale pointer raises rather than
     corrupting the reused record. *)
  let c = ctx () in
  let a = mk_arena () in
  let p = Memory.Arena.claim_fresh c a in
  Memory.Arena.write c a p 0 7;
  Memory.Arena.release c a p ~recycle:true;
  let p' = Option.get (Memory.Arena.claim_recycled c a) in
  Memory.Arena.write c a p' 0 7;
  (match Memory.Arena.cas c a p 0 ~expect:7 8 with
  | _ -> Alcotest.fail "stale CAS not detected"
  | exception Memory.Arena.Use_after_free _ -> ());
  Alcotest.(check int) "value untouched" 7 (Memory.Arena.read c a p' 0)

let test_capacity () =
  let c = ctx () in
  let a =
    Memory.Arena.create ~heap_id:0 ~name:"small" ~mut_fields:1 ~const_fields:0
      ~capacity:2 ()
  in
  ignore (Memory.Arena.claim_fresh c a);
  ignore (Memory.Arena.claim_fresh c a);
  match Memory.Arena.claim_fresh c a with
  | _ -> Alcotest.fail "expected Arena_full"
  | exception Memory.Arena.Arena_full _ -> ()

(* Random alloc/free traffic agrees with a reference model. *)
let prop_arena_model =
  QCheck.Test.make ~name:"arena agrees with reference model" ~count:100
    QCheck.(list (pair bool (int_bound 100)))
    (fun script ->
      let c = ctx () in
      let a =
        Memory.Arena.create ~heap_id:1 ~name:"m" ~mut_fields:1 ~const_fields:0
          ~capacity:512 ()
      in
      let live = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun (alloc, v) ->
          if alloc || Hashtbl.length live = 0 then begin
            let p =
              match Memory.Arena.claim_recycled c a with
              | Some p -> p
              | None -> Memory.Arena.claim_fresh c a
            in
            if Hashtbl.mem live p then ok := false;
            Memory.Arena.write c a p 0 v;
            Hashtbl.replace live p v
          end
          else begin
            let n = Random.int (Hashtbl.length live) in
            let p, v' =
              List.nth (Hashtbl.fold (fun k v acc -> (k, v) :: acc) live []) n
            in
            if Memory.Arena.read c a p 0 <> v' then ok := false;
            Memory.Arena.release c a p ~recycle:true;
            Hashtbl.remove live p
          end)
        script;
      !ok
      && Memory.Arena.live_records a = Hashtbl.length live
      && Hashtbl.fold
           (fun p v acc -> acc && Memory.Arena.read c a p 0 = v)
           live true)

(* A slot has mutable cells only from its first claim: before it, every
   field reads 0 and the one unchecked writer refuses to write. *)
let test_unclaimed_slot () =
  let c = ctx () and a = mk_arena () in
  let p = Memory.Arena.claim_fresh c a in
  Memory.Arena.poke a p 0 5;
  Memory.Arena.poke a p 1 6;
  let q = Memory.Ptr.make ~arena:0 ~slot:(Memory.Ptr.slot p + 1) ~gen:0 in
  Alcotest.(check (list int)) "never-claimed slot peeks 0" [ 0; 0 ]
    [ Memory.Arena.peek a q 0; Memory.Arena.peek a q 1 ];
  (match Memory.Arena.poke a q 0 7 with
  | () -> Alcotest.fail "poke on a never-claimed slot did not raise"
  | exception Invalid_argument _ -> ());
  let q' = Memory.Arena.claim_fresh c a in
  Alcotest.(check int) "next claim is that slot" (Memory.Ptr.slot q)
    (Memory.Ptr.slot q');
  Alcotest.(check (list int)) "claimed fields start at 0" [ 0; 0 ]
    [ Memory.Arena.read c a q' 0; Memory.Arena.read c a q' 1 ];
  Memory.Arena.poke a q' 0 7;
  Alcotest.(check (list int)) "cells are per slot" [ 5; 6; 7 ]
    [
      Memory.Arena.peek a p 0; Memory.Arena.peek a p 1; Memory.Arena.peek a q' 0;
    ]

(* Creating an arena allocates its flat per-slot arrays and nothing per
   field: one boxed cell per mutable field up front would add 2 words per
   field (600,000 here) to a world that claims a few records. *)
let test_create_allocation () =
  let capacity = 100_000 and mut_fields = 3 in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let create () =
    Memory.Arena.create ~heap_id:0 ~name:"big" ~mut_fields ~const_fields:0
      ~capacity ()
  in
  (* The first large arena promotes the shared never-claimed cell, a
     one-off minor collection; measure a later one. *)
  ignore (create ());
  let w0 = words () in
  let a = create () in
  let w = words () -. w0 in
  let bound = float_of_int ((capacity * (mut_fields + 3)) + 4096) in
  Alcotest.(check bool)
    (Printf.sprintf "create: %.0f words <= %.0f" w bound)
    true (w <= bound);
  Alcotest.(check int) "capacity" capacity (Memory.Arena.capacity a)

(* Heap dispatch *)
let test_heap_dispatch () =
  let c = ctx () in
  let heap = Memory.Heap.create () in
  let a0 = Memory.Heap.new_arena heap ~name:"a0" ~mut_fields:1 ~const_fields:0 ~capacity:8 in
  let a1 = Memory.Heap.new_arena heap ~name:"a1" ~mut_fields:1 ~const_fields:0 ~capacity:8 in
  let p0 = Memory.Arena.claim_fresh c a0 in
  let p1 = Memory.Arena.claim_fresh c a1 in
  Alcotest.(check string) "dispatch a0" "a0"
    (Memory.Arena.name (Memory.Heap.arena_of heap p0));
  Alcotest.(check string) "dispatch a1" "a1"
    (Memory.Arena.name (Memory.Heap.arena_of heap p1));
  Memory.Heap.release heap c p0 ~recycle:false;
  Alcotest.(check int) "live" 1 (Memory.Heap.live_records heap)

(* Without an event subscriber no event is built: a warmed instrumented
   access allocates nothing. *)
let test_unobserved_allocation () =
  let c = ctx () and a = mk_arena () in
  let p = Memory.Arena.claim_fresh c a in
  let n = 100_000 in
  let pass () =
    for i = 1 to n do
      Memory.Arena.write c a p 0 i;
      ignore (Memory.Arena.cas c a p 0 ~expect:i (i + 1));
      ignore (Memory.Arena.read c a p 0);
      ignore (Memory.Arena.get_const c a p 0)
    done
  in
  pass ();
  let w0 = Gc.minor_words () in
  pass ();
  let per_access = (Gc.minor_words () -. w0) /. float_of_int (4 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per unobserved access < 1" per_access)
    true (per_access < 1.)

(* The per-record protection step of every scheme allocates nothing once
   warm when no subscriber listens: an unobserved [protect]+[unprotect]
   pair — paid per node a traversal reaches — and DEBRA+'s recovery
   [rprotect]+[runprotect_all] pair each stay under one minor word.  The
   [leave_qstate]+[enter_qstate] pair of DEBRA, DEBRA+, EBR and Hyaline
   stays under four: only the limbo-bag rotation allocates, amortized over
   the [INCR_THRESH] operations between epoch advances, and a scheme hook
   bound per call instead of once at [create] would add words to every
   pair.  With one process EBR advances its epoch on every pair, so an
   event built before its [Ctx.observed] test, or a drain callback bound
   per advance, fails here. *)
let verify () = true

let test_protect_allocation (e : Reclaim.Registry.entry) () =
  let module RM = (val Reclaim.Registry.rm Exp2 e) in
  let group = Runtime.Group.create ~seed:1 1 in
  let heap = Memory.Heap.create () in
  let rm = RM.create (Reclaim.Intf.Env.create group heap) in
  let arena =
    Memory.Heap.new_arena heap ~name:"g" ~mut_fields:1 ~const_fields:0
      ~capacity:64
  in
  let c = Runtime.Group.ctx group 0 in
  RM.leave_qstate rm c;
  let p = RM.alloc rm c arena in
  let pairs = 100_000 in
  let per_pair ?(bound = 1.) what step =
    for _ = 1 to pairs do step () done;
    let w0 = Gc.minor_words () in
    for _ = 1 to pairs do step () done;
    let w = (Gc.minor_words () -. w0) /. float_of_int pairs in
    Alcotest.(check bool)
      (Printf.sprintf "%s %s: %.3f minor words per pair < %g" e.name what w
         bound)
      true (w < bound)
  in
  per_pair "protect+unprotect" (fun () ->
      ignore (RM.protect rm c p ~verify);
      RM.unprotect rm c p);
  per_pair "rprotect+runprotect_all" (fun () ->
      RM.rprotect rm c p;
      RM.runprotect_all rm c);
  if List.mem e.name [ "debra"; "debra+"; "ebr"; "hyaline" ] then
    per_pair ~bound:4. "leave_qstate+enter_qstate" (fun () ->
        RM.leave_qstate rm c;
        RM.enter_qstate rm c)

(* Address space *)
let test_addr () =
  let base = Runtime.Addr.reserve_words 20 in
  Alcotest.(check int) "same line"
    (Runtime.Addr.line_of ~base_line:base 0)
    (Runtime.Addr.line_of ~base_line:base 7);
  Alcotest.(check bool) "next line" true
    (Runtime.Addr.line_of ~base_line:base 8
    > Runtime.Addr.line_of ~base_line:base 7)

let () =
  Alcotest.run "memory"
    [
      ( "ptr",
        [
          QCheck_alcotest.to_alcotest prop_ptr_roundtrip;
          QCheck_alcotest.to_alcotest prop_ptr_distinct;
          Alcotest.test_case "null" `Quick test_null;
        ] );
      ( "arena",
        [
          Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "stale CAS detected" `Quick test_stale_cas_fails;
          Alcotest.test_case "capacity" `Quick test_capacity;
          Alcotest.test_case "never-claimed slot" `Quick test_unclaimed_slot;
          Alcotest.test_case "create allocates no cells" `Quick
            test_create_allocation;
          Alcotest.test_case "unobserved access allocates nothing" `Quick
            test_unobserved_allocation;
          QCheck_alcotest.to_alcotest prop_arena_model;
        ] );
      ( "protect-allocation",
        List.map
          (fun (e : Reclaim.Registry.entry) ->
            Alcotest.test_case e.name `Quick (test_protect_allocation e))
          Reclaim.Registry.all );
      ( "heap",
        [
          Alcotest.test_case "dispatch" `Quick test_heap_dispatch;
          Alcotest.test_case "addr lines" `Quick test_addr;
        ] );
    ]
