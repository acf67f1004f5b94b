(* Interleaving fuzz for the shadow-state SMR sanitizer (lib/sanitizer).

   Two directions of evidence:
   - every real scheme, on every structure, across a sweep of `Random_walk
     schedules, produces ZERO violations and drains its limbo to zero after
     a quiescent shutdown (the shadow ledger agrees with the reclaimer's own
     limbo_size);
   - the deliberately broken reclaimers (broken_schemes.ml) are caught and
     correctly classified against the disciplines they declare: an EBR
     that skips the grace period (premature-free), an HP that skips the
     post-announce validation (unprotected-access), a VBR that skips its
     version re-validation, and a Hyaline that loses a batch reference.

   ThreadScan runs with a delete-buffer threshold its workload never
   reaches, so all collection happens in the final flush: TS's signal-scan
   is genuinely unsound for structures whose traversals cross retired
   records (paper §3, reproduced by test_threadscan.ml), and the sanitizer
   would — correctly — flag it.  See DESIGN.md §"Sanitizer". *)

open Reclaim

let seeds = [ 11; 23; 37; 41; 59; 101; 211; 307 ]

let fuzz_params = { Intf.Params.aggressive with hp_slots = 24 }

let machine = Machine.Config.tiny ~contexts:4 ()
let nprocs = 3
let ops_per_proc = 60
let key_range = 16
let capacity = 4096

(* Every scheme runs under the registry's [Check] pairing: shared pool
   behind the epoch schemes, direct pool for the hazard-scan family
   (generation checks then give a faithful freed-oracle), recycling
   allocator for StackTrack and VBR. *)
module Fuzz (RM : Intf.RECORD_MANAGER) = struct
  module L = Ds.Hm_list.Make (RM)
  module B = Ds.Efrb_bst.Make (RM)
  module Q = Ds.Ms_queue.Make (RM)

  (* Quiescent shutdown: cycle every process through enough operation
     boundaries that every grace period expires and every announcement is
     retracted, then flush whatever is still in limbo. *)
  let drain group rm =
    for _ = 1 to 30 do
      Array.iter
        (fun ctx ->
          RM.leave_qstate rm ctx;
          RM.enter_qstate rm ctx)
        group.Runtime.Group.ctxs
    done;
    RM.flush rm (Runtime.Group.ctx group 0)

  (* Build the structure, run one `Random_walk schedule, shut down
     quiescently, reconcile the leak ledger — all under the sanitizer. *)
  let exercise ~seed build =
    let group = Runtime.Group.create ~seed nprocs in
    let heap = Memory.Heap.create () in
    let env = Intf.Env.create ~params:fuzz_params group heap in
    let rm = RM.create env in
    let san =
      Sanitizer.create ~scheme:RM.Reclaimer.name
        ~discipline:RM.Reclaimer.discipline ~heap ~group
    in
    let crashed = ref false in
    (try
       Sanitizer.with_checks san (fun () ->
           let bodies = build group rm in
           ignore
             (Sim.run ~machine ~policy:(`Random_walk seed) group bodies);
           drain group rm;
           Sanitizer.leak_check san ~limbo_size:(RM.limbo_size rm))
     with
    | Memory.Arena.Use_after_free _ | Memory.Arena.Double_free _ | Sim.Stuck _
      ->
        (* Only the deliberately broken schemes get here: the arena's own
           generation check fired after the sanitizer already recorded the
           violation.  The clean-matrix assertions reject any crash. *)
        crashed := true);
    (san, rm, !crashed)

  let build_list group rm =
    let t = L.create rm ~capacity in
    Array.init nprocs (fun pid () ->
        let ctx = Runtime.Group.ctx group pid in
        let rng = Random.State.make [| 0xda7a; pid |] in
        for _ = 1 to ops_per_proc do
          let key = Random.State.int rng key_range in
          match Random.State.int rng 3 with
          | 0 -> ignore (L.insert t ctx ~key ~value:(key * 2))
          | 1 -> ignore (L.delete t ctx key)
          | _ -> ignore (L.contains t ctx key)
        done)

  let build_bst group rm =
    let t = B.create rm ~capacity in
    Array.init nprocs (fun pid () ->
        let ctx = Runtime.Group.ctx group pid in
        let rng = Random.State.make [| 0xb57; pid |] in
        for _ = 1 to ops_per_proc do
          let key = Random.State.int rng key_range in
          match Random.State.int rng 3 with
          | 0 -> ignore (B.insert t ctx ~key ~value:(key * 2))
          | 1 -> ignore (B.delete t ctx key)
          | _ -> ignore (B.contains t ctx key)
        done)

  let build_queue group rm =
    let t = Q.create rm ~capacity in
    Array.init nprocs (fun pid () ->
        let ctx = Runtime.Group.ctx group pid in
        let rng = Random.State.make [| 0xc0ffee; pid |] in
        for _ = 1 to ops_per_proc do
          if Random.State.int rng 5 < 3 then
            Q.enqueue t ctx (Random.State.int rng 1000)
          else ignore (Q.dequeue t ctx)
        done)

  (* Per-pid disjoint keys, so every delete succeeds and every process
     retires a steady stream (see the broken VBR test). *)
  let build_list_churn group rm =
    let t = L.create rm ~capacity in
    Array.init nprocs (fun pid () ->
        let ctx = Runtime.Group.ctx group pid in
        for i = 1 to 100 do
          let key = (pid * 64) + (i mod 48) in
          ignore (L.insert t ctx ~key ~value:1);
          ignore (L.delete t ctx key)
        done)

  let assert_clean ~name (san, rm, crashed) =
    Alcotest.(check bool) (name ^ ": no crash") false crashed;
    Alcotest.(check string) (name ^ ": violations") "" (Sanitizer.report san);
    Alcotest.(check int) (name ^ ": limbo drained") 0 (RM.limbo_size rm);
    Alcotest.(check int)
      (name ^ ": shadow ledger drained")
      0
      (Sanitizer.retired_unfreed san);
    Alcotest.(check bool)
      (name ^ ": access subscription wired")
      true
      (Sanitizer.accesses_checked san > 0)

  let scheme = RM.Reclaimer.name

  let clean build_name build () =
    List.iter
      (fun seed ->
        let name = Printf.sprintf "%s/%s/seed=%d" scheme build_name seed in
        assert_clean ~name (exercise ~seed build))
      seeds

  let tests =
    [
      Alcotest.test_case
        (Printf.sprintf "%s list clean" scheme)
        `Quick
        (clean "hm_list" build_list);
      Alcotest.test_case
        (Printf.sprintf "%s bst clean" scheme)
        `Quick
        (clean "efrb_bst" build_bst);
      Alcotest.test_case
        (Printf.sprintf "%s queue clean" scheme)
        `Quick
        (clean "ms_queue" build_queue);
    ]

  (* One sanitized run of a workload: the sanitizer and whether the arena
     trapped (only the broken schemes may). *)
  let run ~seed workload =
    let build =
      match workload with
      | `List -> build_list
      | `List_churn -> build_list_churn
    in
    let san, _rm, crashed = exercise ~seed build in
    (san, crashed)
end

type fuzz = {
  tests : unit Alcotest.test_case list;
  run : seed:int -> [ `List | `List_churn ] -> Sanitizer.t * bool;
}

let fuzz : Registry.entry -> fuzz =
  let memo =
    Registry.memo (fun variant e ->
        let module RM = (val Registry.rm variant e) in
        let module F = Fuzz (RM) in
        { tests = F.tests; run = F.run })
  in
  memo Registry.Check

(* ------------------------------------------------------------------ *)
(* Deliberately broken schemes: the sanitizer must catch and classify. *)

(* The broken runs are expected to crash the arena sooner or later; what
   matters is the classification against the discipline each mutant
   declares: premature-free for a missing grace period, unprotected-access
   for a missing validation. *)
let test_broken_ebr () =
  let caught =
    List.exists
      (fun seed ->
        let san, _crashed =
          (fuzz Broken_schemes.broken_ebr).run ~seed `List
        in
        Sanitizer.has san Sanitizer.Premature_free)
      seeds
  in
  Alcotest.(check bool) "premature-free caught" true caught

let test_broken_ebr_classification () =
  (* Single-seed determinism: the first concurrent retire is already
     premature (the retirer itself is still inside its session). *)
  let san, _crashed =
    (fuzz Broken_schemes.broken_ebr).run ~seed:11 `List
  in
  Alcotest.(check bool)
    "at least one violation" true
    (Sanitizer.violation_count san > 0);
  List.iter
    (fun v ->
      match v.Sanitizer.kind with
      | Sanitizer.Premature_free | Sanitizer.Use_after_free
      | Sanitizer.Double_free ->
          ()
      | k ->
          Alcotest.failf "unexpected violation kind %s"
            (Sanitizer.kind_name k))
    (Sanitizer.violations san)

let test_broken_hp () =
  let caught =
    List.exists
      (fun seed ->
        let san, _crashed =
          (fuzz Broken_schemes.broken_hp).run ~seed `List
        in
        Sanitizer.has san Sanitizer.Unprotected_access)
      seeds
  in
  Alcotest.(check bool) "unprotected-access caught" true caught

(* Broken VBR frees eagerly (as real VBR does) but dereferences without
   re-validating the version, and without the sandbox that turns a stale
   access into a rollback.  Real VBR earns the lenient/skip discipline
   precisely because of that validation; a VBR that stops validating is
   just an epoch scheme with no grace period, so it is held to the
   epoch/grace-session discipline — under which its in-session block
   frees are premature (the retirer itself is still inside the session
   open at the triggering retire), and any traversal that does cross a
   reclaimed record is a use-after-free or an arena generation trap.

   The workload churns per-pid disjoint keys so every delete succeeds:
   broken VBR only frees once a whole block of retires accumulates at one
   process, so the random mixed workload (where a process may win only a
   handful of deletes) can legitimately end the run with every bag still
   below a full block. *)
let test_broken_vbr () =
  let caught =
    List.exists
      (fun seed ->
        let san, crashed =
          (fuzz Broken_schemes.broken_vbr).run ~seed `List_churn
        in
        Sanitizer.has san Sanitizer.Premature_free
        || Sanitizer.has san Sanitizer.Use_after_free
        || crashed)
      seeds
  in
  Alcotest.(check bool) "missing validation caught" true caught

(* Broken Hyaline loses one batch reference at seal time, so the batch is
   freed while the last charged session is still open: under the
   grace-session free discipline that is a premature free, classified
   exactly like the broken EBR's missing grace period. *)
let test_broken_hyaline () =
  let caught =
    List.exists
      (fun seed ->
        let san, _crashed =
          (fuzz Broken_schemes.broken_hyaline).run ~seed `List
        in
        Sanitizer.has san Sanitizer.Premature_free)
      seeds
  in
  Alcotest.(check bool) "premature-free caught" true caught

let test_broken_hyaline_classification () =
  let san, _crashed =
    (fuzz Broken_schemes.broken_hyaline).run ~seed:11 `List
  in
  Alcotest.(check bool)
    "at least one violation" true
    (Sanitizer.violation_count san > 0);
  List.iter
    (fun v ->
      match v.Sanitizer.kind with
      | Sanitizer.Premature_free | Sanitizer.Use_after_free
      | Sanitizer.Double_free ->
          ()
      | k ->
          Alcotest.failf "unexpected violation kind %s" (Sanitizer.kind_name k))
    (Sanitizer.violations san)

(* ------------------------------------------------------------------ *)
(* The one rule set, hand-fed (no simulator): each script runs under
   [Sanitizer.with_checks] and must return its pinned verdicts. *)

type world = {
  group : Runtime.Group.t;
  heap : Memory.Heap.t;
  arena : Memory.Arena.t;
}

let ctx w pid = Runtime.Group.ctx w.group pid
let emit w pid ev = Memory.Heap.emit w.heap (ctx w pid) ev
let alloc w = Memory.Arena.claim_fresh (ctx w 0) w.arena
let read w pid p = ignore (Memory.Arena.read (ctx w pid) w.arena p 0)
let free w p = Memory.Arena.release (ctx w 0) w.arena p ~recycle:true

(* Pid 0 allocates, retires and frees [p]; [before] and [between] set up
   the other processes around the retire. *)
let retire_then_free ~before ~between w =
  let p = alloc w in
  before w p;
  emit w 0 (Memory.Smr_event.Retire p);
  between w p;
  free w p

(* (name, discipline, verdicts, script) *)
let scripts =
  let open Memory.Discipline in
  let open Memory.Smr_event in
  let session = make Epoch Grace_session in
  let nothing _ _ = () in
  [
    ( "grace-session: free inside the retire-time session",
      session,
      [ Sanitizer.Use_after_free; Premature_free ],
      fun w ->
        let p = alloc w in
        Memory.Arena.write (ctx w 0) w.arena p 0 1;
        emit w 1 Leave_q;
        (* publication: a non-owner access *)
        read w 1 p;
        emit w 0 (Retire p);
        (* a second retire of the incarnation is untypeable: ignored, not
           double-counted in the limbo ledger *)
        emit w 0 (Retire p);
        free w p;
        try read w 1 p with Memory.Arena.Use_after_free _ -> () );
    ( "grace-qpoint: free before every pid's next Enter_q",
      make ~quiescence:Point Epoch Grace_qpoint,
      [ Premature_free ],
      retire_then_free ~before:nothing ~between:(fun w _ ->
          emit w 0 Enter_q) );
    ( "grace-qpoint: free after every pid's next Enter_q",
      make ~quiescence:Point Epoch Grace_qpoint,
      [],
      retire_then_free ~before:nothing ~between:(fun w _ ->
          emit w 0 Enter_q;
          emit w 1 Enter_q) );
    ( "hazard-scan: protection registered before the retire",
      make Hazard Hazard_scan,
      [ Premature_free ],
      retire_then_free
        ~before:(fun w p -> emit w 1 (Protect p))
        ~between:nothing );
    ( "hazard-scan: protection registered after the retire",
      make Hazard Hazard_scan,
      [],
      retire_then_free ~before:nothing ~between:(fun w p ->
          emit w 1 (Protect p)) );
    ( "rprotect after the retire still blocks a free",
      session,
      [ Premature_free ],
      retire_then_free ~before:nothing ~between:(fun w p ->
          emit w 1 (Rprotect p)) );
    ( "a crashed pid blocks no free",
      session,
      [],
      retire_then_free
        ~before:(fun w _ -> emit w 1 Leave_q)
        ~between:(fun w _ -> Runtime.Group.mark_crashed w.group 1) );
    ( "double free: pool put, then free",
      session,
      [ Double_free ],
      retire_then_free ~before:nothing ~between:(fun w p ->
          emit w 0 (Pool_put p)) );
    ( "pool take resets the binding",
      session,
      [],
      fun w ->
        let p = alloc w in
        emit w 0 (Retire p);
        emit w 0 (Pool_put p);
        emit w 0 (Pool_take p);
        emit w 1 Leave_q;
        read w 1 p;
        emit w 0 (Pool_put p) );
    ( "access to a shared record outside a session",
      session,
      [ Unquiesced_access ],
      fun w -> read w 1 (alloc w) );
    ( "the same access under a recovery announcement",
      session,
      [],
      fun w ->
        let p = alloc w in
        emit w 1 (Rprotect p);
        read w 1 p );
    ( "the same access under point quiescence",
      make ~quiescence:Point Epoch Grace_qpoint,
      [],
      fun w -> read w 1 (alloc w) );
  ]

(* A fresh two-process world: [script] runs under a sanitizer, whose
   distinct violation kinds are returned after a leak check against an
   empty limbo. *)
let verdicts discipline script =
  let group = Runtime.Group.create ~seed:1 2 in
  let heap = Memory.Heap.create () in
  let arena =
    Memory.Heap.new_arena heap ~name:"toy" ~mut_fields:1 ~const_fields:0
      ~capacity:64
  in
  let san = Sanitizer.create ~scheme:"toy" ~discipline ~heap ~group in
  Sanitizer.with_checks san (fun () -> script { group; heap; arena });
  Sanitizer.leak_check san ~limbo_size:0;
  List.map (fun (v : Sanitizer.violation) -> v.kind) (Sanitizer.violations san)
  |> List.sort_uniq compare
  |> List.map Sanitizer.kind_name

let state_machine_tests =
  List.map
    (fun (name, discipline, expect, script) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check (list string))
            "sanitizer"
            (List.map Sanitizer.kind_name (List.sort_uniq compare expect))
            (verdicts discipline script)))
    scripts

let () =
  Alcotest.run "sanitizer"
    ((("state-machine", state_machine_tests)
     :: List.map (fun (e : Registry.entry) -> (e.name, (fuzz e).tests))
          Registry.all)
    @ [
        ( "broken",
          [
            Alcotest.test_case "broken ebr caught" `Quick test_broken_ebr;
            Alcotest.test_case "broken ebr classified" `Quick
              test_broken_ebr_classification;
            Alcotest.test_case "broken hp caught" `Quick test_broken_hp;
            Alcotest.test_case "broken vbr caught" `Quick test_broken_vbr;
            Alcotest.test_case "broken hyaline caught" `Quick
              test_broken_hyaline;
            Alcotest.test_case "broken hyaline classified" `Quick
              test_broken_hyaline_classification;
          ] );
      ])
