(* Unit tests for the reclamation schemes themselves: epoch mechanics,
   limbo-bag rotation, HP scanning, pool recycling, allocator behaviour —
   plus the reproduction of the paper's §3 ThreadScan unsoundness scenario
   and the grace-period guarantee tests. *)

open Reclaim

let params_tiny =
  { Intf.Params.default with Intf.Params.block_capacity = 4; incr_thresh = 1 }

(* The registry's [Check] pairings: shared pool behind the epoch schemes,
   direct pool behind the hazard-scan family. *)
let check name = Registry.rm Check (Registry.find name)

module RM_debra = (val check "debra")

(* Protection-survival tests use the Direct pool: the bump allocator bumps
   the slot generation on deallocate, so [Arena.is_valid] is a faithful
   "was it freed?" oracle.  (The Shared pool reuses records without freeing
   them, which is correct but undetectable through generations.) *)
module RM_debra_plus =
  Record_manager.Make (Alloc.Bump) (Pool.Direct) (Debra_plus.Make)

module RM_hp = (val check "hp")
module RM_ebr = (val check "ebr")
module RM_ts = (val check "threadscan")
module RM_qsbr = (val check "qsbr")
module RM_rc = (val check "rc")

module Setup (RM : Intf.RECORD_MANAGER) = struct
  let make ?(params = params_tiny) ?(n = 2) ?(seed = 1) () =
    let group = Runtime.Group.create ~seed n in
    let heap = Memory.Heap.create () in
    let env = Intf.Env.create ~params group heap in
    let rm = RM.create env in
    let arena =
      Memory.Heap.new_arena heap ~name:"u" ~mut_fields:1 ~const_fields:1
        ~capacity:65536
    in
    (group, heap, env, rm, arena)
end

module S_debra = Setup (RM_debra)
module S_debra_plus = Setup (RM_debra_plus)
module S_hp = Setup (RM_hp)
module S_ebr = Setup (RM_ebr)
module S_ts = Setup (RM_ts)
module S_qsbr = Setup (RM_qsbr)
module S_rc = Setup (RM_rc)

(* DEBRA: a retired record is not reused until the epoch has advanced twice
   past its retire epoch, and is reused afterwards. *)
let test_debra_grace_period () =
  let group, heap, _env, rm, arena = S_debra.make () in
  let ctx = Runtime.Group.ctx group 0 in
  let ctx1 = Runtime.Group.ctx group 1 in
  (* Retire enough records to fill blocks. *)
  RM_debra.leave_qstate rm ctx;
  let retired =
    List.init 8 (fun i ->
        let p = RM_debra.alloc rm ctx arena in
        Memory.Arena.set_const ctx arena p 0 i;
        RM_debra.retire rm ctx p;
        p)
  in
  RM_debra.enter_qstate rm ctx;
  Alcotest.(check int) "all in limbo" 8 (RM_debra.limbo_size rm);
  (* All retired records are still valid (allocated). *)
  List.iter (fun p -> Memory.Arena.validate arena p) retired;
  (* Drive both processes through ops so the epoch advances several times. *)
  for _ = 1 to 40 do
    RM_debra.leave_qstate rm ctx;
    RM_debra.enter_qstate rm ctx;
    RM_debra.leave_qstate rm ctx1;
    RM_debra.enter_qstate rm ctx1
  done;
  ignore heap;
  Alcotest.(check bool)
    (Printf.sprintf "limbo drained after epochs (got %d)"
       (RM_debra.limbo_size rm))
    true
    (RM_debra.limbo_size rm < 8)

(* DEBRA partial fault tolerance: a process that is QUIESCENT but never
   running again does not stop reclamation. *)
let test_debra_quiescent_idler_harmless () =
  let group, _heap, _env, rm, arena = S_debra.make ~n:3 () in
  let ctx = Runtime.Group.ctx group 0 in
  let ctx1 = Runtime.Group.ctx group 1 in
  (* Process 2 never does anything (initially quiescent). *)
  RM_debra.leave_qstate rm ctx;
  for i = 1 to 8 do
    let p = RM_debra.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    RM_debra.retire rm ctx p
  done;
  RM_debra.enter_qstate rm ctx;
  for _ = 1 to 40 do
    RM_debra.leave_qstate rm ctx;
    RM_debra.enter_qstate rm ctx;
    RM_debra.leave_qstate rm ctx1;
    RM_debra.enter_qstate rm ctx1
  done;
  Alcotest.(check bool) "reclaimed despite idler" true
    (RM_debra.limbo_size rm < 8)

(* ...but a process stalled NON-quiescent stops DEBRA's reclamation. *)
let test_debra_nonquiescent_blocks () =
  let group, _heap, _env, rm, arena = S_debra.make ~n:2 () in
  let ctx = Runtime.Group.ctx group 0 in
  let ctx1 = Runtime.Group.ctx group 1 in
  RM_debra.leave_qstate rm ctx1;
  (* ctx1 now stays non-quiescent forever *)
  RM_debra.leave_qstate rm ctx;
  for i = 1 to 8 do
    let p = RM_debra.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    RM_debra.retire rm ctx p
  done;
  RM_debra.enter_qstate rm ctx;
  for _ = 1 to 60 do
    RM_debra.leave_qstate rm ctx;
    RM_debra.enter_qstate rm ctx
  done;
  Alcotest.(check int) "nothing reclaimed" 8 (RM_debra.limbo_size rm)

(* DEBRA+ in the same situation neutralizes the laggard (here: the stalled
   process would handle the signal at its next access; since it never runs,
   the epoch simply advances past it). *)
let test_debra_plus_neutralizes_laggard () =
  let params = { params_tiny with Intf.Params.suspect_blocks = 1 } in
  let group, _heap, _env, rm, arena = S_debra_plus.make ~params ~n:2 () in
  let ctx = Runtime.Group.ctx group 0 in
  let ctx1 = Runtime.Group.ctx group 1 in
  RM_debra_plus.leave_qstate rm ctx1;
  RM_debra_plus.leave_qstate rm ctx;
  for i = 1 to 16 do
    let p = RM_debra_plus.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    RM_debra_plus.retire rm ctx p
  done;
  RM_debra_plus.enter_qstate rm ctx;
  for _ = 1 to 60 do
    RM_debra_plus.leave_qstate rm ctx;
    RM_debra_plus.enter_qstate rm ctx
  done;
  Alcotest.(check bool)
    (Printf.sprintf "reclaimed past the laggard (limbo %d)"
       (RM_debra_plus.limbo_size rm))
    true
    (RM_debra_plus.limbo_size rm < 16);
  Alcotest.(check bool) "signals were sent" true
    (ctx.Runtime.Ctx.stats.Runtime.Ctx.signals_sent > 0)

(* DEBRA+ RProtected records survive reclamation scans. *)
let test_debra_plus_rprotect_survives () =
  let params = { params_tiny with Intf.Params.suspect_blocks = 1 } in
  let group, _heap, _env, rm, arena = S_debra_plus.make ~params ~n:2 () in
  let ctx = Runtime.Group.ctx group 0 in
  let ctx1 = Runtime.Group.ctx group 1 in
  RM_debra_plus.leave_qstate rm ctx;
  let victim = RM_debra_plus.alloc rm ctx arena in
  Memory.Arena.set_const ctx arena victim 0 99;
  RM_debra_plus.rprotect rm ctx victim;
  Alcotest.(check bool) "is_rprotected" true
    (RM_debra_plus.is_rprotected rm ctx victim);
  RM_debra_plus.retire rm ctx victim;
  for i = 1 to 32 do
    let p = RM_debra_plus.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    RM_debra_plus.retire rm ctx p
  done;
  RM_debra_plus.enter_qstate rm ctx;
  for _ = 1 to 80 do
    RM_debra_plus.leave_qstate rm ctx;
    RM_debra_plus.enter_qstate rm ctx;
    RM_debra_plus.leave_qstate rm ctx1;
    RM_debra_plus.enter_qstate rm ctx1
  done;
  (* The protected record must still be allocated. *)
  Memory.Arena.validate arena victim;
  RM_debra_plus.runprotect_all rm ctx;
  Alcotest.(check bool) "no longer rprotected" false
    (RM_debra_plus.is_rprotected rm ctx victim)

(* The epoch protocol both DEBRA and DEBRA+ run, driven through the
   allocation-failure path so every epoch advance is one the test asked
   for ([incr_thresh] is out of reach of the amortized check). *)
module Epoch_core (RM : Intf.RECORD_MANAGER) = struct
  module S = Setup (RM)

  let params = { params_tiny with Intf.Params.incr_thresh = 1_000_000 }

  (* Counts the epoch advances [f] makes. *)
  let advances group heap f =
    let n = ref 0 in
    let counter =
      Runtime.Ctx.subscriber ~scope:(Memory.Heap.scope heap)
        ~event:(fun _ctx -> function
          | Memory.Smr_event.Epoch_advance _ -> incr n
          | _ -> ())
        ()
    in
    Runtime.Group.subscribe group counter;
    f ();
    Runtime.Group.unsubscribe group counter;
    !n

  (* Mid-operation our published announcement keeps the epoch we entered
     with, so the emergency path may advance the epoch once per operation
     and no further, however often it is asked. *)
  let test_one_advance_per_operation () =
    let group, heap, _env, rm, _arena = S.make ~params ~n:2 () in
    let ctx = Runtime.Group.ctx group 0 in
    for op = 1 to 3 do
      RM.leave_qstate rm ctx;
      let k =
        advances group heap (fun () ->
            for _ = 1 to 4 do ignore (RM.emergency_reclaim rm ctx) done)
      in
      Alcotest.(check int) (Printf.sprintf "op %d: advances" op) 1 k;
      RM.enter_qstate rm ctx
    done

  (* Records retired in one operation stay in limbo across the next two
     advances, and leave when their bag becomes current again. *)
  let test_bag_freed_when_it_comes_round () =
    let group, _heap, _env, rm, arena = S.make ~params ~n:2 () in
    let ctx = Runtime.Group.ctx group 0 in
    RM.leave_qstate rm ctx;
    for i = 1 to 8 do
      let p = RM.alloc rm ctx arena in
      Memory.Arena.set_const ctx arena p 0 i;
      RM.retire rm ctx p
    done;
    let freed = Array.make 3 0 in
    for op = 0 to 2 do
      if op > 0 then RM.leave_qstate rm ctx;
      freed.(op) <- RM.emergency_reclaim rm ctx;
      RM.enter_qstate rm ctx
    done;
    Alcotest.(check (array int)) "freed per advance" [| 0; 0; 8 |] freed;
    Alcotest.(check int) "limbo empty" 0 (RM.limbo_size rm)

  let cases =
    [
      Alcotest.test_case "emergency advances once per operation" `Quick
        test_one_advance_per_operation;
      Alcotest.test_case "bag freed when it comes round" `Quick
        test_bag_freed_when_it_comes_round;
    ]
end

module Core_debra = Epoch_core (RM_debra)
module Core_debra_plus = Epoch_core (RM_debra_plus)

(* DEBRA+'s [flush] keeps an rprotected record in limbo, and releases it
   once the protection is dropped. *)
let test_debra_plus_flush_keeps_rprotected () =
  let group, _heap, _env, rm, arena = S_debra_plus.make ~n:2 () in
  let ctx = Runtime.Group.ctx group 0 in
  RM_debra_plus.leave_qstate rm ctx;
  let victim = RM_debra_plus.alloc rm ctx arena in
  RM_debra_plus.rprotect rm ctx victim;
  RM_debra_plus.retire rm ctx victim;
  for i = 1 to 7 do
    let p = RM_debra_plus.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    RM_debra_plus.retire rm ctx p
  done;
  RM_debra_plus.flush rm ctx;
  Alcotest.(check int) "only the victim stays" 1 (RM_debra_plus.limbo_size rm);
  Memory.Arena.validate arena victim;
  RM_debra_plus.runprotect_all rm ctx;
  RM_debra_plus.flush rm ctx;
  Alcotest.(check int) "limbo empty" 0 (RM_debra_plus.limbo_size rm);
  Alcotest.(check bool) "victim freed" false (Memory.Arena.is_valid arena victim)

(* DEBRA+ rotates without releasing anything until the bag just made
   current holds enough blocks to amortize a scan of every RProtect row:
   here ceil(2 * 64 / 4) + 1 = 33 blocks, counting the head block each
   arena's bag keeps even when empty. *)
let test_debra_plus_rotation_waits_for_scan_threshold () =
  let params = { params_tiny with Intf.Params.hp_slots = 64 } in
  let group, _heap, _env, rm, arena = S_debra_plus.make ~params ~n:2 () in
  let ctx = Runtime.Group.ctx group 0 in
  let ctx1 = Runtime.Group.ctx group 1 in
  let retire_and_run k =
    RM_debra_plus.leave_qstate rm ctx;
    for i = 1 to k do
      let p = RM_debra_plus.alloc rm ctx arena in
      Memory.Arena.set_const ctx arena p 0 i;
      RM_debra_plus.retire rm ctx p
    done;
    RM_debra_plus.enter_qstate rm ctx;
    for _ = 1 to 40 do
      RM_debra_plus.leave_qstate rm ctx;
      RM_debra_plus.enter_qstate rm ctx;
      RM_debra_plus.leave_qstate rm ctx1;
      RM_debra_plus.enter_qstate rm ctx1
    done;
    RM_debra_plus.limbo_size rm
  in
  Alcotest.(check int) "2 blocks: below the threshold" 8 (retire_and_run 8);
  let limbo = retire_and_run 200 in
  Alcotest.(check bool)
    (Printf.sprintf "50 more blocks: released (limbo %d)" limbo)
    true (limbo < 208)

(* HP: a protected record survives a scan; unprotected retired records are
   reclaimed once the retire threshold is crossed. *)
let test_hp_scan_respects_announcements () =
  let params = { params_tiny with Intf.Params.hp_retire_factor = 1; block_capacity = 4 } in
  let group, _heap, _env, rm, arena = S_hp.make ~params ~n:1 () in
  let ctx = Runtime.Group.ctx group 0 in
  RM_hp.leave_qstate rm ctx;
  let victim = RM_hp.alloc rm ctx arena in
  Memory.Arena.set_const ctx arena victim 0 1;
  Alcotest.(check bool) "protect" true
    (RM_hp.protect rm ctx victim ~verify:(fun () -> true));
  RM_hp.retire rm ctx victim;
  (* Push way past the scan threshold. *)
  for i = 1 to 64 do
    let p = RM_hp.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    RM_hp.retire rm ctx p
  done;
  (* victim still protected -> still allocated *)
  Memory.Arena.validate arena victim;
  Alcotest.(check bool) "scan freed the rest" true (RM_hp.limbo_size rm < 65);
  (* Release and push again: now it must eventually be reclaimed. *)
  RM_hp.unprotect rm ctx victim;
  for i = 1 to 64 do
    let p = RM_hp.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    RM_hp.retire rm ctx p
  done;
  Alcotest.(check bool) "victim reclaimed after unprotect" false
    (Memory.Arena.is_valid arena victim)

(* EBR reclaims across a grace period. *)
let test_ebr_reclaims () =
  let group, _heap, _env, rm, arena = S_ebr.make ~n:2 () in
  let ctx = Runtime.Group.ctx group 0 in
  let ctx1 = Runtime.Group.ctx group 1 in
  RM_ebr.leave_qstate rm ctx;
  for i = 1 to 8 do
    let p = RM_ebr.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    RM_ebr.retire rm ctx p
  done;
  RM_ebr.enter_qstate rm ctx;
  for _ = 1 to 20 do
    RM_ebr.leave_qstate rm ctx;
    RM_ebr.enter_qstate rm ctx;
    RM_ebr.leave_qstate rm ctx1;
    RM_ebr.enter_qstate rm ctx1
  done;
  Alcotest.(check int) "all reclaimed" 0 (RM_ebr.limbo_size rm)

(* Paper §4: "allowing each process to keep up to 16 blocks in its block
   pool reduces the number of blocks allocated by more than 99.9%".  Drive
   heavy retire/reclaim churn and check the recycle ratio dominates. *)
let test_block_pool_recycle_ratio () =
  let params = { Intf.Params.default with Intf.Params.block_capacity = 8; incr_thresh = 1 } in
  let group = Runtime.Group.create ~seed:3 2 in
  let heap = Memory.Heap.create () in
  let env = Intf.Env.create ~params group heap in
  let rm = RM_debra.create env in
  let arena =
    Memory.Heap.new_arena heap ~name:"churn" ~mut_fields:1 ~const_fields:1
      ~capacity:300_000
  in
  let ctx = Runtime.Group.ctx group 0 in
  let ctx1 = Runtime.Group.ctx group 1 in
  let churn rounds =
    for i = 1 to rounds do
      RM_debra.leave_qstate rm ctx;
      let p = RM_debra.alloc rm ctx arena in
      Memory.Arena.set_const ctx arena p 0 i;
      RM_debra.retire rm ctx p;
      RM_debra.enter_qstate rm ctx;
      RM_debra.leave_qstate rm ctx1;
      RM_debra.enter_qstate rm ctx1
    done
  in
  let totals () =
    Array.fold_left
      (fun (a, r) bp ->
        (a + Bag.Block_pool.allocated bp, r + Bag.Block_pool.recycled bp))
      (0, 0) env.Intf.Env.block_pools
  in
  (* Warm up past the one-off bag-creation allocations, then measure. *)
  churn 2_000;
  let fresh0, _ = totals () in
  churn 20_000;
  let fresh1, recycled1 = totals () in
  let steady_fresh = fresh1 - fresh0 in
  Alcotest.(check bool)
    (Printf.sprintf
       "steady state allocates almost no blocks (%d fresh vs %d recycled)"
       steady_fresh recycled1)
    true
    (steady_fresh * 1000 < recycled1)

(* QSBR frees a batch only after every process has passed a quiescent
   point following the batch's close. *)
let test_qsbr_waits_for_quiescent_points () =
  let params = { params_tiny with Intf.Params.check_thresh = 1 } in
  let group, _heap, _env, rm, arena = S_qsbr.make ~params ~n:2 () in
  let ctx = Runtime.Group.ctx group 0 in
  let ctx1 = Runtime.Group.ctx group 1 in
  RM_qsbr.leave_qstate rm ctx;
  for i = 1 to 8 do
    let p = RM_qsbr.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    RM_qsbr.retire rm ctx p
  done;
  (* Only process 0 declares quiescent points: nothing may be freed. *)
  for _ = 1 to 30 do
    RM_qsbr.enter_qstate rm ctx
  done;
  Alcotest.(check int) "blocked on process 1" 8 (RM_qsbr.limbo_size rm);
  (* Process 1 passes a quiescent point: the batch becomes safe. *)
  RM_qsbr.enter_qstate rm ctx1;
  for _ = 1 to 5 do
    RM_qsbr.enter_qstate rm ctx
  done;
  Alcotest.(check int) "freed after grace" 0 (RM_qsbr.limbo_size rm)

(* RC: a held reference pins the record; releasing it lets a scan free
   it. *)
let test_rc_reference_pins () =
  let group, _heap, _env, rm, arena = S_rc.make ~n:1 () in
  let ctx = Runtime.Group.ctx group 0 in
  RM_rc.leave_qstate rm ctx;
  let victim = RM_rc.alloc rm ctx arena in
  Memory.Arena.set_const ctx arena victim 0 1;
  Alcotest.(check bool) "protect" true
    (RM_rc.protect rm ctx victim ~verify:(fun () -> true));
  Alcotest.(check bool) "counted" true (RM_rc.is_protected rm ctx victim);
  RM_rc.retire rm ctx victim;
  for i = 1 to 32 do
    let p = RM_rc.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    RM_rc.retire rm ctx p
  done;
  Memory.Arena.validate arena victim;
  RM_rc.unprotect rm ctx victim;
  Alcotest.(check bool) "released" false (RM_rc.is_protected rm ctx victim);
  for i = 1 to 32 do
    let p = RM_rc.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    RM_rc.retire rm ctx p
  done;
  Alcotest.(check bool) "victim reclaimed after release" false
    (Memory.Arena.is_valid arena victim)

(* The paper's §3 "Applicability of TS" scenario, reproduced on the
   simulator: process p holds a private pointer to retired record u, which
   points to retired record u'; a collection happens while p has only u
   registered; u' is freed; p then follows u's pointer into u' and performs
   an illegal access, which the arena detects. *)
let test_threadscan_unsound_retired_chain () =
  let params = { params_tiny with Intf.Params.ts_buffer_blocks = 2 } in
  let group, _heap, _env, rm, arena = S_ts.make ~params ~n:2 ~seed:9 () in
  let uaf = ref false in
  let u_holder = ref Memory.Ptr.null in
  let u'_holder = ref Memory.Ptr.null in
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    if pid = 0 then begin
      (* p: start an operation, register u as a root, read u.next = u',
         then go to sleep before registering u'. *)
      RM_ts.leave_qstate rm ctx;
      while Memory.Ptr.is_null !u_holder do
        Runtime.Ctx.work ctx 1
      done;
      let u = !u_holder in
      ignore (RM_ts.protect rm ctx u ~verify:(fun () -> true));
      (* p is about to read u.next, but sleeps first; q's collection signal
         arrives meanwhile.  The handler runs at the first access after the
         wake-up (reporting only u as a root), p naps again while the
         collector frees u' — and then follows the pointer from retired u
         into freed u': the paper's illegal access. *)
      Runtime.Ctx.stall ctx 3_000_000;
      Runtime.Ctx.work ctx 1 (* signal handler fires here: roots = {u} *);
      Runtime.Ctx.stall ctx 200_000 (* let the collector finish freeing *);
      let u' = Memory.Arena.read ctx arena u 0 in
      (match Memory.Arena.read ctx arena u' 0 with
      | _ -> ()
      | exception Memory.Arena.Use_after_free _ -> uaf := true);
      RM_ts.enter_qstate rm ctx
    end
    else begin
      let ctx = Runtime.Group.ctx group pid in
      RM_ts.leave_qstate rm ctx;
      (* q: build u -> u', publish them, then retire both and flood the
         delete buffer to force a collection while p sleeps. *)
      let u' = RM_ts.alloc rm ctx arena in
      Memory.Arena.write ctx arena u' 0 0;
      let u = RM_ts.alloc rm ctx arena in
      Memory.Arena.write ctx arena u 0 u';
      u'_holder := u';
      u_holder := u;
      Runtime.Ctx.work ctx 50_000;
      (* Remove both from the (conceptual) structure and retire them. *)
      RM_ts.retire rm ctx u;
      RM_ts.retire rm ctx u';
      (* Exactly one collection: 6 more retires reach the 8-record
         threshold while u and u' sit in the oldest (full) block. *)
      for i = 1 to 6 do
        let p = RM_ts.alloc rm ctx arena in
        Memory.Arena.set_const ctx arena p 0 i;
        RM_ts.retire rm ctx p
      done;
      RM_ts.enter_qstate rm ctx
    end
  in
  ignore
    (Sim.run ~machine:(Machine.Config.tiny ~contexts:2 ()) group
       (Array.init 2 body));
  Alcotest.(check bool)
    "ThreadScan frees a record reachable from a registered retired record"
    true !uaf

(* VBR rides the recycling allocator: frees route through the arena and
   bump the slot generation, which IS the version [protect] re-checks. *)
module RM_vbr = (val check "vbr")

(* Direct pool for the gating test: frees bump the generation, so
   [Arena.is_valid] is a faithful freed-oracle (same trick as RM_debra_plus
   above). *)
module RM_hyaline_direct =
  Record_manager.Make (Alloc.Bump) (Pool.Direct) (Hyaline.Make)

module S_vbr = Setup (RM_vbr)
module S_hyaline_direct = Setup (RM_hyaline_direct)

(* VBR is robust: it reclaims full blocks at retire time with no grace
   period, regardless of what any other process is doing — here process 1
   parks NON-quiescent forever, which wedges DEBRA
   (test_debra_nonquiescent_blocks) but cannot hold VBR's limbo above one
   partial block per arena. *)
let test_vbr_reclaims_despite_stalled_reader () =
  let group, _heap, _env, rm, arena = S_vbr.make ~n:2 () in
  let ctx = Runtime.Group.ctx group 0 in
  let ctx1 = Runtime.Group.ctx group 1 in
  RM_vbr.leave_qstate rm ctx1;
  (* ctx1 now stays non-quiescent forever. *)
  RM_vbr.leave_qstate rm ctx;
  let first = ref Memory.Ptr.null in
  for i = 1 to 9 do
    let p = RM_vbr.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    if i = 1 then first := p;
    RM_vbr.retire rm ctx p
  done;
  RM_vbr.enter_qstate rm ctx;
  (* Two full blocks (capacity 4) were reclaimed in place; only the partial
     head block is left in limbo. *)
  Alcotest.(check int) "limbo bounded by one partial block" 1
    (RM_vbr.limbo_size rm);
  Alcotest.(check bool)
    "first retired record really freed (version bumped)" false
    (Memory.Arena.is_valid arena !first)

(* VBR's protect is version re-validation: it succeeds on a live record and
   fails — instead of protecting — once the record's slot generation moved
   past the version the pointer carries. *)
let test_vbr_protect_revalidates_version () =
  let group, _heap, _env, rm, arena = S_vbr.make ~n:1 () in
  let ctx = Runtime.Group.ctx group 0 in
  RM_vbr.leave_qstate rm ctx;
  let victim = RM_vbr.alloc rm ctx arena in
  Memory.Arena.set_const ctx arena victim 0 1;
  Alcotest.(check bool) "live record validates" true
    (RM_vbr.protect rm ctx victim ~verify:(fun () -> true));
  (* The caller-side verify is part of the validation chain. *)
  Alcotest.(check bool) "verify failure rejects" false
    (RM_vbr.protect rm ctx victim ~verify:(fun () -> false));
  RM_vbr.retire rm ctx victim;
  (* Fill the block so the retire-side reclaim frees the victim. *)
  for i = 2 to 9 do
    let p = RM_vbr.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    RM_vbr.retire rm ctx p
  done;
  Alcotest.(check bool) "victim reclaimed" false
    (Memory.Arena.is_valid arena victim);
  Alcotest.(check bool) "stale version rejected" false
    (RM_vbr.protect rm ctx victim ~verify:(fun () -> true));
  RM_vbr.enter_qstate rm ctx

(* Hyaline frees a sealed batch exactly when its last charged session
   closes: the retiring process dropping its own reference is not enough
   while a slower reader is still inside the session the seal charged. *)
let test_hyaline_batch_refcount_gates () =
  let group, _heap, _env, rm, arena = S_hyaline_direct.make ~n:2 () in
  let ctx = Runtime.Group.ctx group 0 in
  let ctx1 = Runtime.Group.ctx group 1 in
  (* Reader opens a session and parks there. *)
  RM_hyaline_direct.leave_qstate rm ctx1;
  RM_hyaline_direct.leave_qstate rm ctx;
  let first = ref Memory.Ptr.null in
  (* block_capacity retires fill and seal the batch; the seal charges both
     open sessions. *)
  for i = 1 to 4 do
    let p = RM_hyaline_direct.alloc rm ctx arena in
    Memory.Arena.set_const ctx arena p 0 i;
    if i = 1 then first := p;
    RM_hyaline_direct.retire rm ctx p
  done;
  Alcotest.(check int) "batch sealed, nothing freed" 4
    (RM_hyaline_direct.limbo_size rm);
  (* The retirer's own boundary drops one reference — the reader's charge
     still pins the batch, across any number of retirer boundaries. *)
  for _ = 1 to 5 do
    RM_hyaline_direct.enter_qstate rm ctx;
    RM_hyaline_direct.leave_qstate rm ctx
  done;
  RM_hyaline_direct.enter_qstate rm ctx;
  Alcotest.(check int) "reader's charge pins the batch" 4
    (RM_hyaline_direct.limbo_size rm);
  Memory.Arena.validate arena !first;
  (* The reader closes the charged session: its boundary drops the last
     reference and frees the whole batch. *)
  RM_hyaline_direct.enter_qstate rm ctx1;
  Alcotest.(check int) "batch freed at last reference" 0
    (RM_hyaline_direct.limbo_size rm);
  Alcotest.(check bool) "records really freed" false
    (Memory.Arena.is_valid arena !first)

(* Limbo must drain to exactly zero after a quiescent shutdown ([flush]),
   for every scheme — cross-checked against the sanitizer's shadow ledger,
   which counts every Retire and Free on the event stream independently of
   the reclaimer's own bookkeeping. *)
module Drain (RM : Intf.RECORD_MANAGER) = struct
  let run () =
    let group = Runtime.Group.create ~seed:7 2 in
    let heap = Memory.Heap.create () in
    let env = Intf.Env.create ~params:params_tiny group heap in
    let rm = RM.create env in
    let arena =
      Memory.Heap.new_arena heap ~name:"d" ~mut_fields:1 ~const_fields:1
        ~capacity:4096
    in
    let discipline = RM.Reclaimer.discipline in
    let san =
      Sanitizer.create ~scheme:RM.Reclaimer.name ~discipline ~heap ~group
    in
    let ctx0 = Runtime.Group.ctx group 0 in
    let ctx1 = Runtime.Group.ctx group 1 in
    Sanitizer.with_checks san (fun () ->
        (* Two processes allocate and retire across interleaved sessions. *)
        for round = 1 to 10 do
          List.iter
            (fun ctx ->
              RM.leave_qstate rm ctx;
              for i = 1 to 6 do
                let p = RM.alloc rm ctx arena in
                Memory.Arena.set_const ctx arena p 0 (round + i);
                RM.retire rm ctx p
              done;
              RM.enter_qstate rm ctx)
            [ ctx0; ctx1 ]
        done;
        if discipline.Memory.Discipline.track_limbo then
          Alcotest.(check int) "mid-run: shadow ledger mirrors limbo"
            (RM.limbo_size rm)
            (Sanitizer.retired_unfreed san);
        (* Quiescent shutdown: expire every grace period, then flush. *)
        for _ = 1 to 30 do
          List.iter
            (fun ctx ->
              RM.leave_qstate rm ctx;
              RM.enter_qstate rm ctx)
            [ ctx0; ctx1 ]
        done;
        RM.flush rm ctx0;
        Sanitizer.leak_check san ~limbo_size:(RM.limbo_size rm));
    Alcotest.(check string) "no violations" "" (Sanitizer.report san);
    Alcotest.(check int) "limbo empty after flush" 0 (RM.limbo_size rm);
    if discipline.Memory.Discipline.track_limbo then
      Alcotest.(check int) "shadow ledger empty" 0
        (Sanitizer.retired_unfreed san)
end

(* The typed surface's answer to double retire: [retire] spends its
   [unlinked] witness, and a second spend of the same witness is an
   [Invalid_argument] at the API boundary, before any reclaimer state is
   touched.  This is why the sanitizer carries no double-retire check. *)
let test_typed_double_retire () =
  let module T = RM_ebr.Typed in
  let group, _heap, _env, rm, arena = S_ebr.make ~n:1 () in
  let ctx = Runtime.Group.ctx group 0 in
  let raised =
    T.run_op rm ctx
      ~recover:(fun () -> None)
      (fun s ->
        T.leave rm ctx s;
        let f = T.alloc rm ctx arena in
        T.init rm ctx arena f 0 0;
        let w = T.unlink_locked rm ctx s (T.publish_locked rm ctx s f) in
        T.retire rm ctx w;
        let raised =
          match T.retire rm ctx w with
          | () -> false
          | exception Invalid_argument _ -> true
        in
        T.enter rm ctx s;
        raised)
  in
  Alcotest.(check bool) "second retire rejected" true raised

(* Every registered scheme, under its [Check] pairing. *)
let drain (e : Registry.entry) =
  let module RM = (val Registry.rm Check e) in
  let module D = Drain (RM) in
  Alcotest.test_case e.name `Quick D.run

let () =
  Alcotest.run "reclaim"
    [
      ("limbo-drains", List.map drain Registry.all);
      ( "vbr",
        [
          Alcotest.test_case "reclaims despite stalled reader" `Quick
            test_vbr_reclaims_despite_stalled_reader;
          Alcotest.test_case "protect re-validates version" `Quick
            test_vbr_protect_revalidates_version;
        ] );
      ( "hyaline",
        [
          Alcotest.test_case "batch refcount gates frees" `Quick
            test_hyaline_batch_refcount_gates;
        ] );
      ( "debra",
        [
          Alcotest.test_case "grace period" `Quick test_debra_grace_period;
          Alcotest.test_case "quiescent idler harmless" `Quick
            test_debra_quiescent_idler_harmless;
          Alcotest.test_case "non-quiescent laggard blocks" `Quick
            test_debra_nonquiescent_blocks;
        ]
        @ Core_debra.cases );
      ( "debra+",
        [
          Alcotest.test_case "neutralizes laggard" `Quick
            test_debra_plus_neutralizes_laggard;
          Alcotest.test_case "rprotect survives scan" `Quick
            test_debra_plus_rprotect_survives;
          Alcotest.test_case "flush keeps rprotected" `Quick
            test_debra_plus_flush_keeps_rprotected;
          Alcotest.test_case "rotation waits for scan threshold" `Quick
            test_debra_plus_rotation_waits_for_scan_threshold;
        ]
        @ Core_debra_plus.cases );
      ( "hp",
        [
          Alcotest.test_case "scan respects announcements" `Quick
            test_hp_scan_respects_announcements;
        ] );
      ( "ebr",
        [
          Alcotest.test_case "reclaims" `Quick test_ebr_reclaims;
          Alcotest.test_case "typed double retire rejected" `Quick
            test_typed_double_retire;
        ] );
      ( "block-pool",
        [
          Alcotest.test_case "recycle ratio (paper: >99.9%)" `Quick
            test_block_pool_recycle_ratio;
        ] );
      ( "qsbr",
        [
          Alcotest.test_case "waits for quiescent points" `Quick
            test_qsbr_waits_for_quiescent_points;
        ] );
      ( "rc",
        [ Alcotest.test_case "reference pins record" `Quick test_rc_reference_pins ] );
      ( "threadscan",
        [
          Alcotest.test_case "paper §3: retired-to-retired is unsound" `Quick
            test_threadscan_unsound_retired_chain;
        ] );
    ]
