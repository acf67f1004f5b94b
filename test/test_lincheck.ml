(* Linearizability checker + systematic exploration (lib/lincheck).

   Four directions of evidence:
   - the WGL checker gives the right verdict on hand-written histories
     (overlap legality, real-time precedence, FIFO/LIFO order, pending
     operations, minimal counterexample prefixes);
   - histories round-trip through JSON, and the golden corpus under
     test/histories/ re-checks to the verdict encoded in each file name;
   - bounded-preemption exploration of correct scheme x structure cells
     passes while actually exploring (several schedules, real branch
     points), and recorded schedules replay deterministically;
   - the apparatus has teeth: the broken reclaimers from broken_schemes.ml
     (by the sanitizer in every explored world, and without it by the
     arena's trap), the raw-API mutant_bst.ml (by the sanitizer alone) and
     the seeded mutant_queue.ml (dequeue missing its head re-validation
     CAS) are each rejected with a replayable schedule.

   The heavyweight 9-schemes x 4-structures matrix lives in
   lincheck_matrix.ml behind the @lincheck-matrix alias, not in tier-1. *)

module H = Lincheck.History
module Spec = Lincheck.Spec
module Checker = Lincheck.Checker
module Explore = Lincheck.Explore
module Lh = Workload.Lin_harness

(* ------------------------------------------------------------------ *)
(* Hand-written histories *)

let e ?(pid = 0) op res inv ret =
  {
    H.e_pid = pid;
    e_op = op;
    e_res = Some res;
    e_inv = inv;
    e_ret = ret;
    e_inv_time = inv;
    e_ret_time = ret;
  }

let pend ?(pid = 0) op inv =
  {
    H.e_pid = pid;
    e_op = op;
    e_res = None;
    e_inv = inv;
    e_ret = max_int;
    e_inv_time = inv;
    e_ret_time = max_int;
  }

let is_lin spec h =
  match Checker.check spec h with
  | Checker.Linearizable -> true
  | Checker.Non_linearizable _ -> false

let test_set_overlap () =
  (* mem(1) runs concurrently with add(1): both answers are legal. *)
  let base b =
    [|
      e ~pid:0 (H.Add 1) (H.RBool true) 0 3;
      e ~pid:1 (H.Mem 1) (H.RBool b) 1 2;
    |]
  in
  Alcotest.(check bool) "concurrent mem=true" true (is_lin Spec.set (base true));
  Alcotest.(check bool)
    "concurrent mem=false" true
    (is_lin Spec.set (base false))

let test_set_precedence () =
  (* add(1) completed strictly before mem(1): only true is legal now. *)
  let h b =
    [|
      e ~pid:0 (H.Add 1) (H.RBool true) 0 1;
      e ~pid:1 (H.Mem 1) (H.RBool b) 2 3;
    |]
  in
  Alcotest.(check bool) "later mem=true ok" true (is_lin Spec.set (h true));
  Alcotest.(check bool)
    "stale mem=false rejected" false
    (is_lin Spec.set (h false));
  (* ... and a mem(1)=true with no add anywhere cannot linearize. *)
  Alcotest.(check bool)
    "mem=true from thin air rejected" false
    (is_lin Spec.set [| e (H.Mem 1) (H.RBool true) 0 1 |])

let test_set_minimal_prefix () =
  (* The violation is complete once the stale mem returns: the minimal
     prefix must stop there and drop the trailing unrelated op. *)
  let h =
    [|
      e ~pid:0 (H.Add 1) (H.RBool true) 0 1;
      e ~pid:1 (H.Mem 1) (H.RBool false) 2 3;
      e ~pid:0 (H.Add 2) (H.RBool true) 4 5;
    |]
  in
  match Checker.check Spec.set h with
  | Checker.Linearizable -> Alcotest.fail "expected non-linearizable"
  | Checker.Non_linearizable p ->
      Alcotest.(check int) "minimal prefix has 2 events" 2 (H.ops p)

let test_queue_fifo () =
  let enq v i = e ~pid:0 (H.Enq v) H.RUnit i (i + 1) in
  let deq ?(pid = 1) v i = e ~pid H.Deq (H.RVal (Some v)) i (i + 1) in
  Alcotest.(check bool)
    "fifo order ok" true
    (is_lin Spec.queue [| enq 1 0; enq 2 2; deq 1 4; deq 2 6 |]);
  Alcotest.(check bool)
    "lifo order rejected" false
    (is_lin Spec.queue [| enq 1 0; enq 2 2; deq 2 4; deq 1 6 |]);
  Alcotest.(check bool)
    "duplicate dequeue rejected" false
    (is_lin Spec.queue
       [| enq 1 0; enq 2 2; deq 1 4; deq ~pid:2 1 6 |]);
  Alcotest.(check bool)
    "empty dequeue while nonempty rejected" false
    (is_lin Spec.queue [| enq 1 0; e ~pid:1 H.Deq (H.RVal None) 2 3 |])

let test_stack_lifo () =
  let push v i = e ~pid:0 (H.Push v) H.RUnit i (i + 1) in
  let pop v i = e ~pid:1 H.Pop (H.RVal (Some v)) i (i + 1) in
  Alcotest.(check bool)
    "lifo ok" true
    (is_lin Spec.stack [| push 1 0; push 2 2; pop 2 4; pop 1 6 |]);
  Alcotest.(check bool)
    "fifo rejected" false
    (is_lin Spec.stack [| push 1 0; push 2 2; pop 1 4; pop 2 6 |])

let test_pending () =
  (* A pending add may (but need not) linearize: both observations of the
     set are legal while it is in flight. *)
  let h b =
    [| pend ~pid:0 (H.Add 1) 0; e ~pid:1 (H.Mem 1) (H.RBool b) 1 2 |]
  in
  Alcotest.(check bool) "pending add seen" true (is_lin Spec.set (h true));
  Alcotest.(check bool) "pending add unseen" true (is_lin Spec.set (h false));
  (* A pending dequeue cannot excuse a duplicate completed dequeue. *)
  Alcotest.(check bool)
    "pending op cannot fix duplicate" false
    (is_lin Spec.queue
       [|
         e ~pid:0 (H.Enq 1) H.RUnit 0 1;
         e ~pid:1 H.Deq (H.RVal (Some 1)) 2 3;
         e ~pid:2 H.Deq (H.RVal (Some 1)) 4 5;
         pend ~pid:0 (H.Enq 2) 6;
       |])

(* ------------------------------------------------------------------ *)
(* JSON round-trip + golden corpus *)

let history = Alcotest.testable (fun fmt h -> Format.pp_print_string fmt (H.to_string h)) ( = )

let test_json_roundtrip () =
  let cfg = { Lh.default_config with nprocs = 2; ops_per_proc = 4 } in
  let h = Lh.run_once ~ds:"list" ~scheme:"debra" cfg (Explore.policy_of_schedule []) in
  Alcotest.(check bool) "recorded something" true (H.ops h > 4);
  let h' = H.of_json (H.to_json h) in
  Alcotest.check history "to_json/of_json round-trips" h h';
  let tmp = Filename.temp_file "lincheck" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      H.save h tmp;
      Alcotest.check history "save/load round-trips" h (H.load tmp));
  (* malformed input is a clean error, not a crash *)
  Alcotest.check_raises "malformed rejected" (H.Malformed "missing key \"events\"")
    (fun () -> ignore (H.of_json (Telemetry.Json.Obj [])))

(* Golden corpus: test/histories/<spec>__<label>__<ok|bad>.json.  Each file
   must parse and re-check to the verdict its name encodes. *)
let test_golden_corpus () =
  (* dune runtest runs in the stanza dir (where the glob_files deps land);
     dune exec from the repo root sees the source tree instead *)
  let dir = if Sys.file_exists "histories" then "histories" else "test/histories" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  Alcotest.(check bool)
    (Printf.sprintf "corpus non-empty (%d files)" (List.length files))
    true
    (List.length files >= 6);
  List.iter
    (fun f ->
      match String.split_on_char '_' (Filename.remove_extension f) with
      | spec_name :: _ ->
          let spec =
            match Spec.by_name spec_name with
            | Some s -> s
            | None -> Alcotest.fail (f ^ ": unknown spec prefix")
          in
          let expect_ok =
            Filename.check_suffix (Filename.remove_extension f) "ok"
          in
          let h = H.load (Filename.concat dir f) in
          Alcotest.(check bool) f expect_ok (is_lin spec h)
      | [] -> Alcotest.fail (f ^ ": bad name"))
    files

(* ------------------------------------------------------------------ *)
(* Exploration: clean cells pass (while really exploring), and schedules
   replay deterministically. *)

let smoke_cfg = Lh.matrix_config

let test_explore_clean () =
  List.iter
    (fun (ds, scheme) ->
      match Lh.explore ~budget:2 ~max_runs:400 ~ds ~scheme smoke_cfg with
      | Explore.Pass st ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s explored >1 schedule" ds scheme)
            true (st.Explore.runs > 1);
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s found branch points" ds scheme)
            true
            (st.Explore.branch_points > 0)
      | Explore.Fail { reason; schedule; _ } ->
          Alcotest.fail
            (Printf.sprintf "%s/%s rejected: %s\nschedule: %s" ds scheme reason
               (Explore.schedule_to_string schedule)))
    [ ("list", "debra"); ("queue", "debra+"); ("bst", "hp") ]

(* Pinned budget-2 counts: every explorer shortcut must leave the explored
   tree — runs, branch points, truncation — exactly as it was. *)
let check_pinned_counts rows =
  List.iter
    (fun (ds, scheme, cfg, max_runs, truncated, runs, branch_points) ->
      let cell = ds ^ "/" ^ scheme in
      match Lh.explore ~budget:2 ~max_runs ~ds ~scheme cfg with
      | Explore.Pass st ->
          Alcotest.(check bool)
            (cell ^ " truncated") truncated st.Explore.truncated;
          Alcotest.(check int) (cell ^ " runs") runs st.Explore.runs;
          Alcotest.(check int)
            (cell ^ " branch points") branch_points st.Explore.branch_points
      | v -> Alcotest.fail (cell ^ ": " ^ Lh.verdict_summary v))
    rows

(* The HP-style BST cells, where a process spins in its restart loop for up
   to a fairness quantum after the budget is spent, run to exhaustion. *)
let test_exhaustive_counts () =
  check_pinned_counts
    [
      ("bst", "hp", smoke_cfg, 100_000, false, 1152, 1151);
      ("bst", "rc", smoke_cfg, 100_000, false, 1140, 1139);
      ("bst", "vbr", smoke_cfg, 100_000, false, 1127, 1126);
    ]

(* Both ways a list exploration ends: the two-op cell exhausts its tree
   under the cap, the list/ebr smoke cell stops at its run cap, so the
   truncated verdict is pinned too. *)
let test_list_counts () =
  let tiny = { smoke_cfg with ops_per_proc = 2 } in
  check_pinned_counts
    [
      ("list", "debra", tiny, 400, false, 120, 119);
      ("list", "ebr", smoke_cfg, 25, true, 25, 67);
    ]

let test_replay_deterministic () =
  let policy () = Explore.policy_of_schedule [] in
  let h1 = Lh.run_once ~ds:"list" ~scheme:"ebr" smoke_cfg (policy ()) in
  let h2 = Lh.run_once ~ds:"list" ~scheme:"ebr" smoke_cfg (policy ()) in
  Alcotest.check history "same schedule, same history" h1 h2

(* EBR opens its shadow session only once its announcement is visible.
   Under schedule 39:1 of the queue cell, pid 0 is preempted between
   starting an operation and announcing its epoch; pid 1 sees it
   quiescent, advances the epoch three times and frees a record pid 0
   never touches.  A [Leave_q] emitted before the announcement made the
   sanitizer call that free premature. *)
let test_ebr_session_window () =
  ignore
    (Lh.run_once ~ds:"queue" ~scheme:"ebr" smoke_cfg
       (Explore.policy_of_schedule [ (39, 1) ]))

(* ------------------------------------------------------------------ *)
(* Teeth: the mutants are rejected with replayable schedules. *)

(* Seeded MS-queue mutant under `none` (so the arena cannot trip first and
   the rejection is the checker's): two one-shot dequeuers over a two
   element queue; the missing head re-validation lets both claim the same
   value under one well-placed preemption. *)
module RM_none = Workload.Schemes.RM1_none
module MQ = Mutant_queue.Make (RM_none)

let run_mutant_queue policy =
  let cfg = { smoke_cfg with nprocs = 2 } in
  let group = Runtime.Group.create ~seed:cfg.seed cfg.nprocs in
  let rm =
    RM_none.create
      (Reclaim.Intf.Env.create ~params:cfg.params group (Memory.Heap.create ()))
  in
  let q = MQ.create rm ~capacity:64 in
  let rec_ = H.recorder ~nprocs:2 in
  let ctx0 = Runtime.Group.ctx group 0 in
  List.iter
    (fun v ->
      Lh.record rec_ ctx0 (H.Enq v) (fun () -> MQ.enqueue q ctx0 v) (fun () -> H.RUnit))
    [ 901; 902 ];
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    Lh.record rec_ ctx H.Deq (fun () -> MQ.dequeue q ctx) (fun r -> H.RVal r)
  in
  ignore
    (Sim.run ~machine:(Lh.machine_for cfg) ~max_steps:200_000 ~policy group
       (Array.init 2 body));
  H.snapshot rec_

let check_queue h =
  match Checker.check Spec.queue h with
  | Checker.Linearizable -> None
  | v -> Some (Checker.verdict_to_string v)

let test_mutant_queue_rejected () =
  match
    Explore.explore ~budget:2 ~max_runs:500 ~run_one:run_mutant_queue
      ~check:check_queue ()
  with
  | Explore.Pass _ -> Alcotest.fail "mutant queue slipped past exploration"
  | Explore.Fail { schedule; reason; stats; _ } ->
      Printf.printf
        "mutant queue rejected after %d schedules\n  schedule: %s\n  %s\n"
        stats.Explore.runs
        (Explore.schedule_to_string schedule)
        reason;
      Alcotest.(check bool)
        "rejected by the checker, not a trap" true
        (String.length reason >= 16
        && String.sub reason 0 16 = "NON-LINEARIZABLE");
      (* The printed schedule is a real counterexample: replaying it alone
         reproduces the violation. *)
      let h = run_mutant_queue (Explore.policy_of_schedule schedule) in
      Alcotest.(check bool)
        "schedule replays to the same violation" true
        (check_queue h <> None)

(* The broken schemes (broken_schemes.ml) face one workload shape: a
   deleter (pid 0) removes keys 1..[keys] from a prefilled list while a
   reader (pid 1) searches for the last key [reads] times, traversing
   across the nodes being freed.  Each mutant frees a node the suspended
   reader still holds.  Explored in the harness's sanitized worlds, the
   sanitizer rejects the first schedule that breaks the mutant's declared
   discipline; explored without it, the arena traps the reader's resumed
   access on some later schedule. *)
let set_ops ~sanitized e =
  if sanitized then (Lh.harness e).Lh.set_ops
  else
    let module RM = (val Reclaim.Registry.rm Exp2 e) in
    let module M = Lh.Mk (RM) in
    M.set_ops

let run_broken ?(cfg = { smoke_cfg with nprocs = 2 }) ~keys ~reads set_ops
    policy =
  set_ops ~ds:"list" cfg
    ~prefill:(List.init keys (fun i -> H.Add (i + 1)))
    ~scripts:
      [|
        List.init keys (fun i -> H.Remove (i + 1));
        List.init reads (fun _ -> H.Mem keys);
      |]
    policy

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_set h =
  match Checker.check Spec.set h with
  | Checker.Linearizable -> None
  | v -> Some (Checker.verdict_to_string v)

(* Explore [run] to a rejection whose reason names [expect]; with
   [replays], re-running the printed schedule alone must fail the same
   way.  Returns the number of schedules explored. *)
let check_rejected ~label ~expect ~max_runs ?(replays = true) run =
  match Explore.explore ~budget:2 ~max_runs ~run_one:run ~check:check_set () with
  | Explore.Pass _ -> Alcotest.failf "%s slipped past exploration" label
  | Explore.Fail { schedule; reason; stats; _ } ->
      Printf.printf "%s rejected after %d schedules\n  schedule: %s\n  reason: %s\n"
        label stats.Explore.runs
        (Explore.schedule_to_string schedule)
        reason;
      Alcotest.(check bool) (label ^ ": " ^ expect) true (contains_sub ~sub:expect reason);
      if replays then begin
        let replayed =
          match run (Explore.policy_of_schedule schedule) with
          | (_ : H.t) -> "no failure"
          | exception e -> Printexc.to_string e
        in
        Alcotest.(check string) "schedule replays to the same failure" reason
          replayed
      end;
      stats.Explore.runs

(* Both ways: the sanitizer classifies the break as [kind] no later than
   the unsanitized explorer reaches an arena trap. *)
let check_broken ~label ~kind ~max_runs ?replays run =
  let trapped =
    check_rejected ~label:("broken " ^ label) ~expect:"Use_after_free"
      ~max_runs ?replays (run (set_ops ~sanitized:false))
  in
  let caught =
    check_rejected ~label:("sanitized broken " ^ label)
      ~expect:(Sanitizer.kind_name kind) ~max_runs
      (run (set_ops ~sanitized:true))
  in
  Alcotest.(check bool) "sanitizer rejects no later than the trap" true
    (caught <= trapped)

(* Broken EBR (no grace period): the deleter frees every node immediately
   on retire. *)
let test_broken_ebr_rejected () =
  check_broken ~label:"EBR" ~kind:Premature_free ~max_runs:800 (fun ops ->
      run_broken ~keys:4 ~reads:2 (ops Broken_schemes.broken_ebr))

(* Broken HP (no post-announce validation): the deleter's 8th retire
   crosses the scan threshold and frees everything not (validly)
   announced; a reader that announced too late resumes into a freed
   record. *)
let broken_hp_cfg =
  {
    smoke_cfg with
    nprocs = 2;
    params =
      {
        Lh.explore_params with
        Reclaim.Intf.Params.hp_slots = 8;
        (* threshold floor: scan after 8 retires *)
        hp_retire_factor = 0;
      };
  }

let test_broken_hp_rejected () =
  check_broken ~label:"HP" ~kind:Unprotected_access ~max_runs:1500
    ~replays:false (fun ops ->
      run_broken ~cfg:broken_hp_cfg ~keys:9 ~reads:1
        (ops Broken_schemes.broken_hp))

(* Broken VBR (no version re-validation, no sandbox): retire reclaims full
   blocks immediately — correct VBR behaviour — but the reader resumes
   into a reclaimed record without re-checking the version, and the
   recycling arena's generation trap fires. *)
let test_broken_vbr_rejected () =
  check_broken ~label:"VBR" ~kind:Premature_free ~max_runs:1500 (fun ops ->
      run_broken ~keys:8 ~reads:2 (ops Broken_schemes.broken_vbr))

(* Broken Hyaline (lost batch reference): the seal initializes the batch
   refcount one short, so the batch frees while the last charged session —
   the suspended reader's — is still open. *)
let test_broken_hyaline_rejected () =
  check_broken ~label:"Hyaline" ~kind:Premature_free ~max_runs:1500
    (fun ops -> run_broken ~keys:8 ~reads:2 (ops Broken_schemes.broken_hyaline))

(* The raw-API BST (mutant_bst.ml) on the matrix program under HP: its
   traversals never protect, so a reader crosses a node another process
   has retired.  Its records recycle through the shared pool, which keeps
   their generation, so no arena trap fires: exploration alone passes it,
   and only the sanitizer sees the unprotected access. *)
module Mutant_bst_run (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module B = Mutant_bst.Make (RM)

  let run policy =
    let cfg = smoke_cfg in
    let group = Runtime.Group.create ~seed:cfg.seed cfg.nprocs in
    let rm =
      RM.create
        (Reclaim.Intf.Env.create ~params:cfg.params group (Memory.Heap.create ()))
    in
    let t = B.create rm ~capacity:cfg.capacity in
    let rec_ = H.recorder ~nprocs:cfg.nprocs in
    let apply ctx op =
      Lh.record rec_ ctx op
        (fun () ->
          match op with
          | H.Add key -> B.insert t ctx ~key
          | H.Remove key -> B.delete t ctx key
          | H.Mem key -> B.contains t ctx key
          | _ -> invalid_arg "not a set operation")
        (fun b -> H.RBool b)
    in
    let prefill, scripts = Lh.set_scripts cfg in
    List.iter (apply (Runtime.Group.ctx group 0)) prefill;
    ignore
      (Sim.run ~machine:(Lh.machine_for cfg) ~max_steps:200_000 ~policy group
         (Array.init cfg.nprocs (fun pid () ->
              List.iter (apply (Runtime.Group.ctx group pid)) scripts.(pid))));
    H.snapshot rec_
end

module RM_hp = (val Reclaim.Registry.rm Exp2 (Reclaim.Registry.find "hp"))
module Plain_bst = Mutant_bst_run (RM_hp)
module Sanitized_bst = Mutant_bst_run (Lh.Sanitized (RM_hp))

let test_mutant_bst_rejected () =
  (match
     Explore.explore ~budget:2 ~max_runs:100_000 ~run_one:Plain_bst.run
       ~check:check_set ()
   with
  | Explore.Pass st ->
      Alcotest.(check bool) "unsanitized: exhaustive" false st.Explore.truncated;
      Alcotest.(check int) "unsanitized: schedules" 226 st.Explore.runs
  | v -> Alcotest.fail ("unsanitized: " ^ Lh.verdict_summary v));
  let runs =
    check_rejected ~label:"sanitized mutant bst"
      ~expect:(Sanitizer.kind_name Unprotected_access) ~max_runs:100_000
      Sanitized_bst.run
  in
  Alcotest.(check int) "sanitized: schedules" 2 runs

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lincheck"
    [
      ( "checker",
        [
          Alcotest.test_case "set overlap" `Quick test_set_overlap;
          Alcotest.test_case "set precedence" `Quick test_set_precedence;
          Alcotest.test_case "minimal prefix" `Quick test_set_minimal_prefix;
          Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
          Alcotest.test_case "stack lifo" `Quick test_stack_lifo;
          Alcotest.test_case "pending ops" `Quick test_pending;
        ] );
      ( "history",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "golden corpus" `Quick test_golden_corpus;
        ] );
      ( "explore",
        [
          Alcotest.test_case "clean cells pass" `Quick test_explore_clean;
          Alcotest.test_case "exhaustive bst counts" `Quick
            test_exhaustive_counts;
          Alcotest.test_case "list explore counts" `Quick test_list_counts;
          Alcotest.test_case "replay deterministic" `Quick
            test_replay_deterministic;
          Alcotest.test_case "ebr session window" `Quick
            test_ebr_session_window;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "mutant queue rejected" `Quick
            test_mutant_queue_rejected;
          Alcotest.test_case "broken ebr rejected" `Quick
            test_broken_ebr_rejected;
          Alcotest.test_case "broken hp rejected" `Quick
            test_broken_hp_rejected;
          Alcotest.test_case "broken vbr rejected" `Quick
            test_broken_vbr_rejected;
          Alcotest.test_case "broken hyaline rejected" `Quick
            test_broken_hyaline_rejected;
          Alcotest.test_case "mutant bst rejected" `Quick
            test_mutant_bst_rejected;
        ] );
    ]
