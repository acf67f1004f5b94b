(* The symbolic SMR protocol analyzer (lib/protocheck), both directions:

   - completeness: the full 4-structure x 11-scheme matrix is clean on
     every explored path (the typed structures obey protect-before-deref,
     no-access-after-retire, retire-only-after-unlink under every scheme);
   - sharpness: the seeded mutants are rejected with concrete
     counterexample paths — the grace-skipping EBR (premature-free on the
     all-grant path), the validation-skipping HP (skipped-validation, which
     needs an adversarial acquire decision to surface), and a raw-API BST
     that never protects and retires without an unlink witness;
   - the typestate surface itself: a second retire of the same unlinked
     witness is rejected at the API boundary, which is why the runtime
     sanitizer no longer carries a double-retire check. *)

open Protocheck

module Registry = Reclaim.Registry
module RM_hp = (val Registry.rm Check (Registry.find "hp"))
module MB = Mutant_bst.Make (RM_hp)

(* A violation of kind [k] is present and carries its counterexample
   trace. *)
let check_traced k vs =
  match
    List.find_opt (fun (v : Engine.violation) -> v.violation.kind = k) vs
  with
  | None -> Alcotest.failf "no %s violation" (Sanitizer.kind_name k)
  | Some v ->
      Alcotest.(check bool) "counterexample trace present" true (v.trace <> [])

(* Every cell of the real matrix must be clean on every explored path.
   Diverged paths (a structure that stops making progress under
   adversarial decisions, e.g. HP on the helping BST) are recorded but are
   a progress property, not a safety violation. *)
let test_clean_matrix () =
  let cells = Matrix.all () in
  Alcotest.(check int) "matrix size" 44 (List.length cells);
  List.iter
    (fun c ->
      if not (Report.clean c) then
        Alcotest.failf "cell %s is not clean" (Report.summary c))
    cells

let test_broken_ebr_rejected () =
  let c = Matrix.cell Broken_schemes.broken_ebr Report.List in
  Alcotest.(check bool) "rejected" false (Report.clean c);
  match c.Report.counterexample with
  | None -> Alcotest.fail "no counterexample path recorded"
  | Some ce -> check_traced Premature_free ce.violations

let test_broken_hp_rejected () =
  let c = Matrix.cell Broken_schemes.broken_hp Report.List in
  Alcotest.(check bool) "rejected" false (Report.clean c);
  match c.Report.counterexample with
  | None -> Alcotest.fail "no counterexample path recorded"
  | Some ce ->
      check_traced Skipped_validation ce.violations;
      (* the bug only surfaces when a validation is forced to fail *)
      Alcotest.(check bool) "needs an adversarial decision" true
        (ce.Report.deny <> [])

(* The raw-API BST under a strict hazard configuration: unprotected
   traversal and witness-less retire, both on the all-grant path. *)
let test_mutant_bst_rejected () =
  let group = Runtime.Group.create ~seed:7 1 in
  let heap = Memory.Heap.create () in
  let env = Reclaim.Intf.Env.create ~params:Cell.params group heap in
  let rm = RM_hp.create env in
  let config = Engine.config ~strict:true RM_hp.Reclaimer.discipline in
  let eng = Engine.create ~config ~heap ~group () in
  let probe =
    Runtime.Ctx.subscriber ~scope:(Memory.Heap.scope heap)
      ~event:(Engine.on_event eng) ()
  in
  Runtime.Group.subscribe group probe;
  let ctx = Runtime.Group.ctx group 0 in
  let t = MB.create rm ~capacity:64 in
  ignore (MB.insert t ctx ~key:5);
  ignore (MB.insert t ctx ~key:3);
  ignore (MB.insert t ctx ~key:8);
  ignore (MB.contains t ctx 3);
  ignore (MB.delete t ctx 8);
  Runtime.Group.unsubscribe group probe;
  check_traced Retire_without_unlink (Engine.violations eng);
  check_traced Unprotected_access (Engine.violations eng)

(* The deleted sanitizer checks are subsumed by the witness API: a second
   retire of the same unlinked witness is an [Invalid_argument] at the API
   boundary, before any reclaimer state is touched. *)
let test_typed_double_retire_rejected () =
  let module RM = (val Registry.rm Check (Registry.find "ebr")) in
  let module T = RM.Typed in
  let group = Runtime.Group.create ~seed:3 1 in
  let heap = Memory.Heap.create () in
  let env = Reclaim.Intf.Env.create group heap in
  let rm = RM.create env in
  let ctx = Runtime.Group.ctx group 0 in
  let arena =
    Memory.Heap.new_arena heap ~name:"double_retire" ~mut_fields:1
      ~const_fields:0 ~capacity:8
  in
  let raised =
    T.run_op rm ctx
      ~recover:(fun () -> None)
      (fun s ->
        T.leave rm ctx s;
        let f = T.alloc rm ctx arena in
        T.init rm ctx arena f 0 0;
        let p = T.publish_locked rm ctx s f in
        let w = T.unlink_locked rm ctx s p in
        T.retire rm ctx w;
        let r =
          try
            T.retire rm ctx w;
            false
          with Invalid_argument _ -> true
        in
        T.enter rm ctx s;
        r)
  in
  Alcotest.(check bool) "second retire rejected" true raised

let () =
  Alcotest.run "protocheck"
    [
      ( "matrix",
        [ Alcotest.test_case "all 44 cells clean" `Slow test_clean_matrix ] );
      ( "mutants",
        [
          Alcotest.test_case "broken ebr: premature free" `Quick
            test_broken_ebr_rejected;
          Alcotest.test_case "broken hp: skipped validation" `Quick
            test_broken_hp_rejected;
          Alcotest.test_case "raw-api bst: unprotected deref + raw retire"
            `Quick test_mutant_bst_rejected;
        ] );
      ( "typestate",
        [
          Alcotest.test_case "double retire is unrepresentable" `Quick
            test_typed_double_retire_rejected;
        ] );
    ]
