(* The overload campaign's admission layer (lib/resilience): watermark
   hysteresis, degradation-report verdicts, a shed-under-pressure trial
   under the shadow-state sanitizer, sim determinism for one
   watermark-admitted overload cell, and the escalation evidence the
   campaign's verdicts rest on — emergency reclamation frees under
   DEBRA+ and frees nothing on a corpse-pinned EBR shard. *)

module R = Resilience

(* ---------- watermark hysteresis ---------- *)

let watermark_hysteresis () =
  let w =
    R.Watermark.create
      (R.Watermark.config ~elevated:100 ~brownout:400 ~escalate_every:0)
  in
  Alcotest.(check bool) "starts normal" true
    (R.Watermark.observe w 50 = R.Watermark.Normal);
  Alcotest.(check bool) "crosses elevated" true
    (R.Watermark.observe w 100 = R.Watermark.Elevated);
  (* Hysteresis: exits at 3/4 of entry, so 80 stays elevated. *)
  Alcotest.(check bool) "above lo stays elevated" true
    (R.Watermark.observe w 80 = R.Watermark.Elevated);
  Alcotest.(check bool) "below lo re-normalizes" true
    (R.Watermark.observe w 74 = R.Watermark.Normal);
  Alcotest.(check bool) "spike to brownout" true
    (R.Watermark.observe w 400 = R.Watermark.Brownout);
  Alcotest.(check bool) "brownout holds above its lo" true
    (R.Watermark.observe w 320 = R.Watermark.Brownout);
  Alcotest.(check bool) "drops back to elevated" true
    (R.Watermark.observe w 250 = R.Watermark.Elevated);
  Alcotest.(check int) "escalations counted" 2 (R.Watermark.escalations w);
  Alcotest.(check int) "brownouts counted" 1 (R.Watermark.brownouts w)

let watermark_config_rejects () =
  Alcotest.check_raises "elevated below 1"
    (Invalid_argument "Watermark.config: want 1 <= elevated < brownout")
    (fun () ->
      ignore (R.Watermark.config ~elevated:0 ~brownout:4 ~escalate_every:0));
  Alcotest.check_raises "brownout not above elevated"
    (Invalid_argument "Watermark.config: want 1 <= elevated < brownout")
    (fun () ->
      ignore (R.Watermark.config ~elevated:4 ~brownout:4 ~escalate_every:0));
  let c = R.Watermark.config ~elevated:100 ~brownout:400 ~escalate_every:7 in
  Alcotest.(check int) "elevated exit at 3/4" 75 c.R.Watermark.elevated_lo;
  Alcotest.(check int) "brownout exit at 3/4" 300 c.R.Watermark.brownout_lo

(* ---------- admit: the per-request step, on a hand-driven clock ---------- *)

(* A lone context whose clock the test sets; [admit] reads nothing else
   from it. *)
let clocked_ctx () =
  let clock = ref 0 in
  let ctx = Runtime.Ctx.make ~pid:0 ~nprocs:1 ~seed:1 in
  ctx.Runtime.Ctx.now_impl <- (fun () -> !clock);
  (ctx, clock)

let outcome =
  Alcotest.testable
    (fun ppf o ->
      Format.pp_print_string ppf
        (match o with
        | Loadgen.Served -> "served"
        | Shed -> "shed"
        | Failed -> "failed"))
    ( = )

let admit_normal_serves () =
  let ctx, _ = clocked_ctx () in
  let w =
    R.Watermark.create
      (R.Watermark.config ~elevated:10 ~brownout:20 ~escalate_every:0)
  in
  let escalated = ref 0 and ran = ref 0 in
  let escalate _ = incr escalated; 5 in
  List.iter
    (fun sheddable ->
      Alcotest.check outcome "served" Loadgen.Served
        (R.Watermark.admit w ctx ~limbo:9 ~escalate ~sheddable (fun () ->
             incr ran)))
    [ false; true ];
  Alcotest.(check int) "work ran, sheddable too" 2 !ran;
  Alcotest.(check int) "no escalation below elevated" 0 !escalated;
  Alcotest.(check int) "no calls counted" 0 (R.Watermark.escalate_calls w)

let admit_escalation_rate_limited () =
  let ctx, clock = clocked_ctx () in
  let w =
    R.Watermark.create
      (R.Watermark.config ~elevated:10 ~brownout:1_000 ~escalate_every:100)
  in
  let freed = ref 0 in
  let escalate _ = incr freed; !freed in
  (* Elevated throughout; escalation may run at 0, then only once each
     100 cycles have passed since the last one. *)
  List.iter
    (fun t ->
      clock := t;
      ignore
        (R.Watermark.admit w ctx ~limbo:50 ~escalate ~sheddable:false ignore))
    [ 0; 50; 99; 100; 150; 250 ];
  Alcotest.(check int) "calls at 0, 100, 250" 3 (R.Watermark.escalate_calls w);
  Alcotest.(check int) "freed is the sum of returns" (1 + 2 + 3)
    (R.Watermark.escalate_freed w);
  Alcotest.(check int) "one Normal -> Elevated transition" 1
    (R.Watermark.escalations w)

let admit_brownout_sheds_sheddable () =
  let ctx, clock = clocked_ctx () in
  let w =
    R.Watermark.create
      (R.Watermark.config ~elevated:10 ~brownout:20 ~escalate_every:100)
  in
  let ran = ref 0 in
  let escalate _ = 0 in
  Alcotest.check outcome "sheddable shed" Loadgen.Shed
    (R.Watermark.admit w ctx ~limbo:25 ~escalate ~sheddable:true (fun () ->
         incr ran));
  Alcotest.(check int) "shed work did not run" 0 !ran;
  Alcotest.(check int) "escalation still ran" 1 (R.Watermark.escalate_calls w);
  clock := 10;
  Alcotest.check outcome "non-sheddable served" Loadgen.Served
    (R.Watermark.admit w ctx ~limbo:25 ~escalate ~sheddable:false (fun () ->
         incr ran));
  Alcotest.(check int) "served work ran" 1 !ran;
  (* Brownout exits at 3/4 of 20 = 15: at 15 the shard is Elevated and
     sheddable work is served again. *)
  Alcotest.check outcome "served after brownout exit" Loadgen.Served
    (R.Watermark.admit w ctx ~limbo:15 ~escalate ~sheddable:true (fun () ->
         incr ran));
  Alcotest.(check bool) "elevated again" true
    (R.Watermark.level w = R.Watermark.Elevated)

let admit_allocation_failure () =
  let ctx, _ = clocked_ctx () in
  let w =
    R.Watermark.create
      (R.Watermark.config ~elevated:10 ~brownout:20 ~escalate_every:0)
  in
  let run f =
    R.Watermark.admit w ctx ~limbo:0 ~escalate:(fun _ -> 0) ~sheddable:false f
  in
  Alcotest.check outcome "out of memory fails" Loadgen.Failed
    (run (fun () -> raise (Memory.Arena.Out_of_memory "test")));
  Alcotest.check outcome "arena full fails" Loadgen.Failed
    (run (fun () -> raise (Memory.Arena.Arena_full "test")));
  Alcotest.check_raises "other exceptions propagate" Not_found (fun () ->
      ignore (run (fun () -> raise Not_found)))

(* ---------- degradation report: verdict arithmetic ---------- *)

let degradation_verdicts () =
  let mk () =
    R.Degradation.create ~burst_start:1_000 ~burst_end:2_000
      ~end_of_schedule:4_000 ~bucket_cycles:100
  in
  (* Healthy cell: uniform served rate, one stray post-burst shed
     (under the 2-bad bucket floor: noise, not "unrecovered"). *)
  let d = mk () in
  for due = 0 to 399 do
    R.Degradation.account d ~due:(due * 10)
      (if due = 250 then Loadgen.Shed else Loadgen.Served)
  done;
  R.Degradation.observe_limbo d 64;
  Alcotest.(check int) "stray shed ignored" 0 (R.Degradation.recovery_cycles d);
  let v =
    R.Degradation.judge d ~limbo_bound:100 ~floor_pct:50.0 ~recovery_budget:500
  in
  Alcotest.(check bool) "healthy passes" true v.R.Degradation.passed;
  (* Pinned cell: after the burst, half of everything is shed to the end
     of the schedule — the bad rate never drops under tolerance, so
     recovery lands at the schedule's end and blows the budget. *)
  let d = mk () in
  for due = 0 to 399 do
    R.Degradation.account d ~due:(due * 10)
      (if due * 10 >= 2_000 && due mod 2 = 0 then Loadgen.Shed
       else Loadgen.Served)
  done;
  Alcotest.(check int) "pinned never recovers" 2_000
    (R.Degradation.recovery_cycles d);
  let v =
    R.Degradation.judge d ~limbo_bound:100 ~floor_pct:50.0 ~recovery_budget:500
  in
  Alcotest.(check bool) "recovery verdict fails" false v.R.Degradation.recovery_ok;
  Alcotest.(check bool) "cell fails" false v.R.Degradation.passed;
  (* Limbo bound is judged on the max sample. *)
  let d = mk () in
  R.Degradation.account d ~due:10 Loadgen.Served;
  R.Degradation.observe_limbo d 101;
  let v =
    R.Degradation.judge d ~limbo_bound:100 ~floor_pct:0.0 ~recovery_budget:500
  in
  Alcotest.(check bool) "limbo over bound fails" false v.R.Degradation.limbo_ok

let degradation_merge () =
  let mk () =
    R.Degradation.create ~burst_start:1_000 ~burst_end:2_000
      ~end_of_schedule:4_000 ~bucket_cycles:100
  in
  let a = mk () and b = mk () in
  R.Degradation.account a ~due:500 Loadgen.Served;
  R.Degradation.account b ~due:600 Loadgen.Shed;
  R.Degradation.account b ~due:1_500 Loadgen.Served;
  R.Degradation.observe_limbo a 10;
  R.Degradation.observe_limbo b 30;
  R.Degradation.merge a b;
  let pre = R.Degradation.tally a R.Degradation.Pre in
  Alcotest.(check int) "merged demand" 2 pre.R.Degradation.demand;
  Alcotest.(check int) "merged shed" 1 pre.R.Degradation.shed;
  Alcotest.(check int) "limbo is max" 30 (R.Degradation.max_limbo a);
  let odd =
    R.Degradation.create ~burst_start:999 ~burst_end:2_000
      ~end_of_schedule:4_000 ~bucket_cycles:100
  in
  Alcotest.check_raises "boundary mismatch rejected"
    (Invalid_argument "Degradation.merge: phase boundaries differ") (fun () ->
      R.Degradation.merge a odd)

(* ---------- shed under allocation pressure, sanitized ---------- *)

module Schemes = Workload.Schemes
module Store = Kv.Store.Make (Schemes.RM2_debra_plus)

let admit wms store ctx ~shard ~sheddable work =
  R.Watermark.admit wms.(shard) ctx
    ~limbo:(Store.shard_limbo store shard)
    ~escalate:(fun ctx -> Store.emergency_reclaim store ctx ~shard)
    ~sheddable work

let shed_under_pressure () =
  let n = 3 in
  let group = Runtime.Group.create ~seed:21 n in
  let store =
    Store.create ~structure:"hm_list" ~shards:1 ~capacity_per_shard:2048 ~group
      ()
  in
  let heap = (Store.heaps store).(0) in
  let san =
    Sanitizer.create ~scheme:"debra+"
      ~discipline:Schemes.RM2_debra_plus.Reclaimer.discipline ~heap ~group
  in
  (* A brownout watermark of 2 retired records: any retire pressure at
     all puts the shard in brownout, so sheddable calls shed. *)
  let wms =
    [|
      R.Watermark.create
        (R.Watermark.config ~elevated:1 ~brownout:2 ~escalate_every:50_000);
    |]
  in
  let served = ref 0 and shed = ref 0 in
  Sanitizer.with_checks san (fun () ->
      let body pid () =
        let ctx = Runtime.Group.ctx group pid in
        for i = 1 to 120 do
          let key = Printf.sprintf "k%d" ((i + (pid * 7)) mod 48) in
          let work () =
            match i mod 3 with
            | 0 -> Store.put store ctx ~key ~value:"v"
            | 1 -> ignore (Store.get store ctx key)
            | _ -> ignore (Store.delete store ctx key)
          in
          match
            admit wms store ctx ~shard:0 ~sheddable:(i mod 4 = 0) work
          with
          | Loadgen.Served -> incr served
          | Shed -> incr shed
          | Failed -> ()
        done
      in
      ignore
        (Sim.run
           ~machine:(Machine.Config.tiny ~contexts:4 ())
           group
           (Array.init n body));
      let ctx0 = Runtime.Group.ctx group 0 in
      Store.check_invariants store;
      Store.flush store ctx0;
      Sanitizer.leak_check san ~limbo_size:(Store.limbo store));
  Alcotest.(check string) "sanitizer clean" "" (Sanitizer.report san);
  Alcotest.(check bool) "work was served" true (!served > 0);
  Alcotest.(check bool) "sheddable work was shed" true (!shed > 0);
  Alcotest.(check bool) "watermark escalated" true
    (R.Watermark.escalate_calls wms.(0) > 0)

(* ---------- sim determinism: one watermark-admitted overload cell ------- *)

let overload_cell () =
  let module E = (val Exec.Backend.runner `Sim) in
  let nprocs = 2 in
  let group = Runtime.Group.create ~seed:33 nprocs in
  let store =
    Store.create ~structure:"skiplist" ~shards:2 ~capacity_per_shard:4096
      ~group ()
  in
  let ctx0 = Runtime.Group.ctx group 0 in
  let key_of r = Printf.sprintf "k%03d" r in
  for r = 0 to 63 do
    Store.put store ctx0 ~key:(key_of r) ~value:"seed"
  done;
  let clock = E.clock in
  let arrivals =
    Loadgen.Arrivals.Spike
      { base = 200_000.0; peak = 1_200_000.0; start_s = 0.002; len_s = 0.001 }
  in
  let plan =
    Loadgen.generate ~n:800 ~nkeys:64
      ~dist:(Loadgen.Dist.Zipfian 0.99)
      ~mix:{ Loadgen.get = 50; put = 25; delete = 5; scan = 20 }
      ~arrivals ~clock ~seed:17
  in
  (* Watermarks scaled to this tiny cell so the burst actually reaches
     brownout and sheds scans. *)
  let wms =
    Array.init 2 (fun _ ->
        R.Watermark.create
          (R.Watermark.config ~elevated:4 ~brownout:16 ~escalate_every:50_000))
  in
  let log = ref [] in
  let exec_op ctx ~due:_ op =
    let key, sheddable, work =
      match op with
      | Loadgen.Get r ->
          (key_of r, false, fun () -> ignore (Store.get store ctx (key_of r)))
      | Loadgen.Put r ->
          ( key_of r,
            false,
            fun () -> Store.put store ctx ~key:(key_of r) ~value:"w" )
      | Loadgen.Delete r ->
          ( key_of r,
            false,
            fun () -> ignore (Store.delete store ctx (key_of r)) )
      | Loadgen.Scan (s, len) ->
          ( key_of s,
            true,
            fun () ->
              for i = s to s + len - 1 do
                ignore (Store.get store ctx (key_of (i mod 64)))
              done )
    in
    let shard = Store.shard_of_key store key in
    (shard, admit wms store ctx ~shard ~sheddable work)
  in
  let record ~pid ~op ~shard ~outcome ~start ~finish =
    log := (pid, Loadgen.op_kind op, shard, outcome, start, finish) :: !log
  in
  let bodies = Loadgen.bodies plan ~group ~record ~exec_op in
  ignore (E.run group bodies);
  Store.check_invariants store;
  let count o =
    List.length (List.filter (fun (_, _, _, o', _, _) -> o' = o) !log)
  in
  (List.sort compare !log, count Loadgen.Served, count Loadgen.Shed)

let overload_cell_deterministic () =
  let log1, served1, shed1 = overload_cell () in
  let log2, served2, shed2 = overload_cell () in
  Alcotest.(check int) "all requests accounted" 800 (List.length log1);
  Alcotest.(check bool) "identical outcome log" true (log1 = log2);
  Alcotest.(check int) "served replays" served1 served2;
  Alcotest.(check int) "shed replays" shed1 shed2;
  Alcotest.(check bool) "burst sheds scans" true (shed1 > 0)

(* ---------- escalation evidence: neutralization vs a pinned epoch ------- *)

(* One shard, three workers, one of which dies mid-operation early on
   (chaos [In_operation]).  The corpse's announcement pins the shard's
   epoch: under EBR no escalation can ever free a record again, while
   DEBRA+ reads the corpse as quiescent (ESRCH) and escalation frees.
   This is the evidence E-overload's must-degrade / must-pass split
   rests on. *)
let escalation_cell (module RM : Reclaim.Intf.RECORD_MANAGER) =
  let module St = Kv.Store.Make (RM) in
  let n = 3 in
  let group = Runtime.Group.create ~seed:5 n in
  let store =
    St.create ~structure:"skiplist" ~shards:1 ~capacity_per_shard:4096 ~group
      ()
  in
  let ctx0 = Runtime.Group.ctx group 0 in
  for r = 0 to 63 do
    St.put store ctx0 ~key:(Printf.sprintf "k%03d" r) ~value:"seed"
  done;
  let wm =
    R.Watermark.create
      (R.Watermark.config ~elevated:16 ~brownout:4_096 ~escalate_every:20_000)
  in
  let engine =
    Chaos.install
      ~in_op:(fun ctx -> St.in_operation store ctx)
      {
        Chaos.seed = 5;
        faults =
          [ Chaos.Crash { pid = 1; at = 50; kind = Chaos.In_operation } ];
      }
      ~group ~heap:(St.heaps store).(0)
  in
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    for i = 1 to 400 do
      let key = Printf.sprintf "k%03d" (((i * 7) + pid) mod 64) in
      ignore
        (R.Watermark.admit wm ctx ~limbo:(St.shard_limbo store 0)
           ~escalate:(fun ctx -> St.emergency_reclaim store ctx ~shard:0)
           ~sheddable:false (fun () ->
             if i land 1 = 0 then St.put store ctx ~key ~value:"v"
             else ignore (St.delete store ctx key)))
    done
  in
  let res =
    Sim.run ~machine:(Machine.Config.tiny ~contexts:4 ()) group
      (Array.init n body)
  in
  Chaos.uninstall engine;
  Alcotest.(check bool) "pid 1 crashed" true res.Sim.crashed.(1);
  (R.Watermark.escalate_calls wm, R.Watermark.escalate_freed wm)

let escalation_evidence () =
  let ebr_calls, ebr_freed = escalation_cell (module Schemes.RM2_ebr) in
  let dp_calls, dp_freed = escalation_cell (module Schemes.RM2_debra_plus) in
  Alcotest.(check bool) "ebr escalated" true (ebr_calls > 0);
  Alcotest.(check int) "pinned ebr shard frees nothing" 0 ebr_freed;
  Alcotest.(check bool) "debra+ escalated" true (dp_calls > 0);
  Alcotest.(check bool) "debra+ escalation frees" true (dp_freed > 0)

let () =
  Alcotest.run "resilience"
    [
      ( "watermark",
        [
          Alcotest.test_case "hysteresis" `Quick watermark_hysteresis;
          Alcotest.test_case "config rejects bad thresholds" `Quick
            watermark_config_rejects;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "verdicts" `Quick degradation_verdicts;
          Alcotest.test_case "merge" `Quick degradation_merge;
        ] );
      ( "admit",
        [
          Alcotest.test_case "normal serves without escalating" `Quick
            admit_normal_serves;
          Alcotest.test_case "escalation is rate-limited" `Quick
            admit_escalation_rate_limited;
          Alcotest.test_case "brownout sheds only sheddable work" `Quick
            admit_brownout_sheds_sheddable;
          Alcotest.test_case "allocation failure is Failed" `Quick
            admit_allocation_failure;
          Alcotest.test_case "shed under pressure, sanitized" `Quick
            shed_under_pressure;
          Alcotest.test_case "overload cell determinism" `Quick
            overload_cell_deterministic;
          Alcotest.test_case
            "escalation frees under DEBRA+, not under a pinned EBR shard"
            `Quick escalation_evidence;
        ] );
    ]
