(* The overload-resilience layer (lib/resilience): deterministic
   full-jitter backoff, retry-budget token accounting, the circuit
   breaker's state machine driven by explicit timestamps, watermark
   hysteresis, degradation-report verdicts, a shed-under-pressure trial
   under the shadow-state sanitizer, and sim determinism for one
   service-wrapped overload cell. *)

module R = Resilience

(* ---------- backoff: seeded determinism and bounds ---------- *)

let backoff_deterministic () =
  let draws seed =
    let b = R.Backoff.create ~base:100 ~cap:10_000 ~seed () in
    List.init 12 (fun _ -> R.Backoff.next b)
  in
  Alcotest.(check (list int)) "same seed, same delays" (draws 7) (draws 7);
  Alcotest.(check bool) "seeds decorrelate" true (draws 7 <> draws 8);
  (* Attempt k draws from [0, min (cap, base * 2^k)). *)
  let b = R.Backoff.create ~base:100 ~cap:10_000 ~seed:3 () in
  List.iteri
    (fun k d ->
      let ceiling = min 10_000 (100 * (1 lsl k)) in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in [0,%d)" k ceiling)
        true
        (0 <= d && d < ceiling))
    (List.init 10 (fun _ -> R.Backoff.next b));
  Alcotest.(check int) "attempts counted" 10 (R.Backoff.attempt b);
  R.Backoff.reset b;
  Alcotest.(check int) "reset rewinds" 0 (R.Backoff.attempt b);
  Alcotest.(check bool) "post-reset ceiling is base" true
    (R.Backoff.next b < 100)

(* ---------- retry budget: token-bucket arithmetic ---------- *)

let retry_budget () =
  let t = R.Retry_budget.create ~ratio_pct:10 ~burst:3 () in
  Alcotest.(check int) "starts holding the burst" 3 (R.Retry_budget.balance t);
  (* Spend the burst dry. *)
  for i = 1 to 3 do
    Alcotest.(check bool) (Printf.sprintf "burst token %d" i) true
      (R.Retry_budget.try_spend t)
  done;
  Alcotest.(check bool) "dry" false (R.Retry_budget.try_spend t);
  Alcotest.(check int) "denied counted" 1 (R.Retry_budget.denied t);
  (* 10% ratio: 10 first attempts earn exactly one retry token. *)
  for _ = 1 to 9 do
    R.Retry_budget.deposit t
  done;
  Alcotest.(check bool) "9 deposits: still dry" false (R.Retry_budget.try_spend t);
  R.Retry_budget.deposit t;
  Alcotest.(check bool) "10th deposit earns a token" true
    (R.Retry_budget.try_spend t);
  Alcotest.(check int) "deposits" 10 (R.Retry_budget.deposits t);
  Alcotest.(check int) "spent" 4 (R.Retry_budget.spent t)

(* ---------- circuit breaker: state machine, explicit clock ---------- *)

let breaker_cfg =
  {
    R.Breaker.window = 1_000;
    min_requests = 4;
    failure_pct = 50;
    cooldown = 500;
    probes = 2;
  }

let breaker_trip_recover () =
  let b = R.Breaker.create ~config:breaker_cfg () in
  Alcotest.(check bool) "closed admits" true (R.Breaker.admit b ~now:0);
  (* Below min_requests the ratio is not meaningful: 3 failures, no trip. *)
  for i = 1 to 3 do
    R.Breaker.record b ~now:(i * 10) ~ok:false
  done;
  Alcotest.(check bool) "under min_requests stays closed" true
    (R.Breaker.state b = R.Breaker.Closed);
  (* The 4th outcome reaches min_requests at 100% failure: trip. *)
  R.Breaker.record b ~now:40 ~ok:false;
  Alcotest.(check bool) "tripped open" true (R.Breaker.state b = R.Breaker.Open);
  Alcotest.(check int) "one trip" 1 (R.Breaker.trips b);
  Alcotest.(check bool) "open rejects" false (R.Breaker.admit b ~now:100);
  Alcotest.(check int) "rejection counted" 1 (R.Breaker.rejected b);
  (* Cooldown elapses at the admit call: half-open, [probes] admissions. *)
  Alcotest.(check bool) "half-open probe 1" true (R.Breaker.admit b ~now:600);
  Alcotest.(check bool) "half-open state" true
    (R.Breaker.state b = R.Breaker.Half_open);
  Alcotest.(check bool) "half-open probe 2" true (R.Breaker.admit b ~now:610);
  Alcotest.(check bool) "probe budget spent" false (R.Breaker.admit b ~now:620);
  (* Both probes succeed: closed again. *)
  R.Breaker.record b ~now:630 ~ok:true;
  R.Breaker.record b ~now:640 ~ok:true;
  Alcotest.(check bool) "probes close it" true
    (R.Breaker.state b = R.Breaker.Closed)

let breaker_probe_failure_reopens () =
  let b = R.Breaker.create ~config:breaker_cfg () in
  for i = 1 to 4 do
    R.Breaker.record b ~now:i ~ok:false
  done;
  Alcotest.(check bool) "open" true (R.Breaker.state b = R.Breaker.Open);
  Alcotest.(check bool) "half-open after cooldown" true
    (R.Breaker.admit b ~now:1_000);
  R.Breaker.record b ~now:1_010 ~ok:false;
  Alcotest.(check bool) "failed probe reopens" true
    (R.Breaker.state b = R.Breaker.Open);
  Alcotest.(check bool) "reopened rejects" false (R.Breaker.admit b ~now:1_020)

let breaker_force_open () =
  let b = R.Breaker.create ~config:breaker_cfg () in
  R.Breaker.force_open b ~now:0;
  Alcotest.(check bool) "forced open" true (R.Breaker.state b = R.Breaker.Open);
  Alcotest.(check int) "forced trip counted" 1 (R.Breaker.trips b);
  R.Breaker.force_open b ~now:10;
  Alcotest.(check int) "no-op when already open" 1 (R.Breaker.trips b)

(* ---------- watermark hysteresis ---------- *)

let watermark_hysteresis () =
  let w = R.Watermark.create (R.Watermark.config ~elevated:100 ~brownout:400) in
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

(* ---------- degradation report: verdict arithmetic ---------- *)

let degradation_verdicts () =
  let mk () =
    R.Degradation.create ~burst_start:1_000 ~burst_end:2_000
      ~end_of_schedule:4_000 ~bucket_cycles:100
  in
  (* Healthy cell: uniform served rate, one stray post-burst timeout
     (under the 2-bad bucket floor: noise, not "unrecovered"). *)
  let d = mk () in
  for due = 0 to 399 do
    R.Degradation.account d ~due:(due * 10)
      (if due = 250 then Loadgen.Timed_out else Loadgen.Served)
  done;
  R.Degradation.observe_limbo d 64;
  Alcotest.(check int) "stray timeout ignored" 0 (R.Degradation.recovery_cycles d);
  let v =
    R.Degradation.judge d ~limbo_bound:100 ~floor_pct:50.0 ~recovery_budget:500
  in
  Alcotest.(check bool) "healthy passes" true v.R.Degradation.passed;
  (* Wedged cell: after the burst, half of everything is rejected to the
     end of the schedule — the bad rate never drops under tolerance, so
     recovery lands at the schedule's end and blows the budget. *)
  let d = mk () in
  for due = 0 to 399 do
    R.Degradation.account d ~due:(due * 10)
      (if due * 10 >= 2_000 && due mod 2 = 0 then Loadgen.Rejected
       else Loadgen.Served)
  done;
  Alcotest.(check int) "wedged never recovers" 2_000
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
  (* A brownout watermark of 1 retired block: any retire pressure at all
     puts the shard in brownout, so low-priority calls shed. *)
  let cfg =
    {
      R.Service.default_config with
      R.Service.deadline = 1_000_000;
      elevated = 1;
      brownout = 2;
    }
  in
  let hooks =
    [|
      {
        R.Service.limbo = (fun () -> Store.shard_limbo store 0);
        pool = (fun () -> Store.shard_pool store 0);
        wedged = (fun () -> Store.shard_wedged store 0);
        escalate = (fun ctx -> Store.emergency_reclaim store ctx ~shard:0);
      };
    |]
  in
  let svc = R.Service.create ~config:cfg ~pids:n ~seed:21 hooks in
  let retryable = function
    | Memory.Arena.Out_of_memory _ | Memory.Arena.Arena_full _ -> true
    | _ -> false
  in
  Sanitizer.with_checks san (fun () ->
      let body pid () =
        let ctx = Runtime.Group.ctx group pid in
        for i = 1 to 120 do
          let key = Printf.sprintf "k%d" ((i + (pid * 7)) mod 48) in
          let due = Runtime.Ctx.now ctx in
          let priority =
            if i mod 4 = 0 then R.Service.Low else R.Service.High
          in
          let work () =
            match i mod 3 with
            | 0 -> Store.put store ctx ~key ~value:"v"
            | 1 -> ignore (Store.get store ctx key)
            | _ -> ignore (Store.delete store ctx key)
          in
          ignore
            (R.Service.call svc ctx ~pid ~shard:0 ~priority ~due ~retryable
               work)
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
  let s = R.Service.stats svc in
  Alcotest.(check bool) "work was served" true (s.R.Service.served > 0);
  Alcotest.(check bool) "low-priority work was shed" true (s.R.Service.shed > 0);
  Alcotest.(check bool) "watermark escalated" true
    (R.Service.escalations svc 0 > 0);
  (* The service's counters surface through the telemetry recorder. *)
  let rec_ = Telemetry.Recorder.create ~cycles_per_ns:1.0 ~nprocs:n () in
  R.Service.register svc rec_;
  let counters = Telemetry.Recorder.counters rec_ in
  Alcotest.(check (option int))
    "resilience_shed counter"
    (Some s.R.Service.shed)
    (List.assoc_opt "resilience_shed" counters);
  Alcotest.(check (option int))
    "resilience_escalations counter"
    (Some (R.Service.escalations svc 0))
    (List.assoc_opt "resilience_escalations" counters)

(* ---------- sim determinism: one service-wrapped overload cell ---------- *)

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
  let hooks =
    Array.init 2 (fun k ->
        {
          R.Service.limbo = (fun () -> Store.shard_limbo store k);
          pool = (fun () -> Store.shard_pool store k);
          wedged = (fun () -> Store.shard_wedged store k);
          escalate = (fun ctx -> Store.emergency_reclaim store ctx ~shard:k);
        })
  in
  let cfg =
    {
      R.Service.default_config with
      R.Service.deadline = Exec.Clock.cycles_of_us clock 200;
      backoff_base = Exec.Clock.cycles_of_us clock 1;
      backoff_cap = Exec.Clock.cycles_of_us clock 20;
      (* Watermarks scaled to this tiny cell so the burst actually
         reaches brownout and sheds scans. *)
      elevated = 4;
      brownout = 16;
    }
  in
  let svc = R.Service.create ~config:cfg ~pids:nprocs ~seed:33 hooks in
  let retryable = function
    | Memory.Arena.Out_of_memory _ | Memory.Arena.Arena_full _ -> true
    | _ -> false
  in
  let log = ref [] in
  let exec_op ctx ~due op =
    let pid = ctx.Runtime.Ctx.pid in
    let key, priority, work =
      match op with
      | Loadgen.Get r ->
          ( key_of r,
            R.Service.High,
            fun () -> ignore (Store.get store ctx (key_of r)) )
      | Loadgen.Put r ->
          ( key_of r,
            R.Service.High,
            fun () -> Store.put store ctx ~key:(key_of r) ~value:"w" )
      | Loadgen.Delete r ->
          ( key_of r,
            R.Service.High,
            fun () -> ignore (Store.delete store ctx (key_of r)) )
      | Loadgen.Scan (s, len) ->
          ( key_of s,
            R.Service.Low,
            fun () ->
              for i = s to s + len - 1 do
                ignore (Store.get store ctx (key_of (i mod 64)))
              done )
    in
    let shard = Store.shard_of_key store key in
    (shard, R.Service.call svc ctx ~pid ~shard ~priority ~due ~retryable work)
  in
  let record ~pid ~op ~shard ~outcome ~start ~finish =
    log := (pid, Loadgen.op_kind op, shard, outcome, start, finish) :: !log
  in
  let bodies = Loadgen.bodies plan ~group ~record ~exec_op in
  ignore (E.run group bodies);
  Store.check_invariants store;
  let s = R.Service.stats svc in
  (List.sort compare !log, s.R.Service.served, s.R.Service.shed)

let overload_cell_deterministic () =
  let log1, served1, shed1 = overload_cell () in
  let log2, served2, shed2 = overload_cell () in
  Alcotest.(check int) "all requests accounted" 800 (List.length log1);
  Alcotest.(check bool) "identical outcome log" true (log1 = log2);
  Alcotest.(check int) "served replays" served1 served2;
  Alcotest.(check int) "shed replays" shed1 shed2;
  Alcotest.(check bool) "burst sheds scans" true (shed1 > 0)

let () =
  Alcotest.run "resilience"
    [
      ("backoff", [ Alcotest.test_case "jitter" `Quick backoff_deterministic ]);
      ("retry-budget", [ Alcotest.test_case "tokens" `Quick retry_budget ]);
      ( "breaker",
        [
          Alcotest.test_case "trip and recover" `Quick breaker_trip_recover;
          Alcotest.test_case "probe failure reopens" `Quick
            breaker_probe_failure_reopens;
          Alcotest.test_case "force open" `Quick breaker_force_open;
        ] );
      ( "watermark",
        [ Alcotest.test_case "hysteresis" `Quick watermark_hysteresis ] );
      ( "degradation",
        [
          Alcotest.test_case "verdicts" `Quick degradation_verdicts;
          Alcotest.test_case "merge" `Quick degradation_merge;
        ] );
      ( "service",
        [
          Alcotest.test_case "shed under pressure, sanitized" `Quick
            shed_under_pressure;
          Alcotest.test_case "overload cell determinism" `Quick
            overload_cell_deterministic;
        ] );
    ]
