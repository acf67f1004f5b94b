(* Tests for the MESI/NUMA cache model: hit/miss costs, invalidation on
   write, the same-socket LLC rule from the paper's Model section, LRU
   eviction, and the simulator's scheduling/oversubscription behaviour. *)

let cfg2s =
  (* 2 sockets x 2 contexts, tiny caches *)
  {
    (Machine.Config.tiny ~contexts:2 ()) with
    Machine.Config.name = "2x2";
    sockets = 2;
    contexts_per_socket = 2;
  }

let test_read_costs () =
  let c = Machine.Cache.create cfg2s in
  let cost k = Machine.Cache.access c ~context:0 k ~line:42 in
  Alcotest.(check int) "cold read = memory" cfg2s.Machine.Config.mem_access
    (cost Runtime.Ctx.Read);
  Alcotest.(check int) "hot read = l1" cfg2s.Machine.Config.l1_hit
    (cost Runtime.Ctx.Read)

let test_llc_shared_within_socket () =
  let c = Machine.Cache.create cfg2s in
  ignore (Machine.Cache.access c ~context:0 Runtime.Ctx.Read ~line:7);
  (* context 1 shares socket 0's LLC *)
  Alcotest.(check int) "same-socket read = llc hit"
    cfg2s.Machine.Config.llc_hit
    (Machine.Cache.access c ~context:1 Runtime.Ctx.Read ~line:7);
  (* context 2 is on socket 1: full miss *)
  Alcotest.(check int) "cross-socket read = memory"
    cfg2s.Machine.Config.mem_access
    (Machine.Cache.access c ~context:2 Runtime.Ctx.Read ~line:7)

let test_write_invalidation () =
  let c = Machine.Cache.create cfg2s in
  (* Both sockets load the line. *)
  ignore (Machine.Cache.access c ~context:0 Runtime.Ctx.Read ~line:9);
  ignore (Machine.Cache.access c ~context:2 Runtime.Ctx.Read ~line:9);
  (* Write by context 0 invalidates socket 1's copies. *)
  ignore (Machine.Cache.access c ~context:0 Runtime.Ctx.Write ~line:9);
  Alcotest.(check int) "remote socket pays memory again"
    cfg2s.Machine.Config.mem_access
    (Machine.Cache.access c ~context:2 Runtime.Ctx.Read ~line:9)

let test_same_socket_llc_survives_write () =
  (* The paper's NUMA rule: a write invalidates other contexts' private
     caches but leaves the writer's socket's LLC copy valid. *)
  let c = Machine.Cache.create cfg2s in
  ignore (Machine.Cache.access c ~context:1 Runtime.Ctx.Read ~line:5);
  ignore (Machine.Cache.access c ~context:0 Runtime.Ctx.Write ~line:5);
  Alcotest.(check int) "same-socket reader pays only LLC"
    cfg2s.Machine.Config.llc_hit
    (Machine.Cache.access c ~context:1 Runtime.Ctx.Read ~line:5)

let test_lru_eviction () =
  let evicted = ref [] in
  let lru = Machine.Lru.create ~cap:2 ~on_evict:(fun l -> evicted := l :: !evicted) in
  Machine.Lru.touch lru 1;
  Machine.Lru.touch lru 2;
  Machine.Lru.touch lru 1;
  (* refresh 1 *)
  Machine.Lru.touch lru 3;
  (* evicts 2 *)
  Alcotest.(check (list int)) "evicted LRU" [ 2 ] !evicted;
  Alcotest.(check bool) "1 kept" true (Machine.Lru.mem lru 1);
  Alcotest.(check bool) "3 kept" true (Machine.Lru.mem lru 3)

let test_l1_capacity_evicts () =
  let c = Machine.Cache.create cfg2s in
  (* Fill L1 (16 lines in tiny config) then exceed it. *)
  for line = 0 to cfg2s.Machine.Config.l1_lines do
    ignore (Machine.Cache.access c ~context:0 Runtime.Ctx.Read ~line)
  done;
  (* line 0 must have been evicted from L1 but still be in the LLC *)
  Alcotest.(check int) "evicted to LLC" cfg2s.Machine.Config.llc_hit
    (Machine.Cache.access c ~context:0 Runtime.Ctx.Read ~line:0)

let prop_costs_bounded =
  QCheck.Test.make ~name:"access costs stay within model bounds" ~count:100
    QCheck.(list (pair (int_bound 3) (pair (int_bound 3) (int_bound 15))))
    (fun script ->
      let c = Machine.Cache.create cfg2s in
      List.for_all
        (fun (ctx, (kind, line)) ->
          let kind =
            match kind with
            | 0 -> Runtime.Ctx.Read
            | 1 -> Runtime.Ctx.Write
            | 2 -> Runtime.Ctx.Cas
            | _ -> Runtime.Ctx.Fence
          in
          let cost = Machine.Cache.access c ~context:ctx kind ~line in
          let open Machine.Config in
          cost >= min cfg2s.l1_hit cfg2s.fence
          && cost
             <= cfg2s.mem_access + cfg2s.invalidation + cfg2s.cas_extra)
        script)

let prop_repeat_read_is_l1 =
  QCheck.Test.make ~name:"repeating a read hits the private cache" ~count:100
    QCheck.(list (int_bound 30))
    (fun lines ->
      let c = Machine.Cache.create cfg2s in
      List.for_all
        (fun line ->
          ignore (Machine.Cache.access c ~context:0 Runtime.Ctx.Read ~line);
          Machine.Cache.access c ~context:0 Runtime.Ctx.Read ~line
          = cfg2s.Machine.Config.l1_hit)
        (List.filter (fun l -> l < cfg2s.Machine.Config.l1_lines) lines))

(* Golden cost streams.  Seeded 200k-access streams — half Zipf(0.99) over
   4096 hot lines, half uniform over 2^18 lines; 55% reads, 20% writes,
   15% CAS, 5% fences, 5% local work — on four machines.  The pinned total
   cost, stats counters and rolling hash of every per-access cost were
   captured from the original list-and-Hashtbl cache model; any rewrite
   must reproduce them exactly. *)

let zipf_cdf n s =
  let w = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf rng cdf =
  let u = Random.State.float rng 1. in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length cdf - 1)

let golden_stream cfg ~seed ~n =
  let c = Machine.Cache.create cfg in
  let rng = Random.State.make [| seed |] in
  let contexts = Machine.Config.contexts cfg in
  let cdf = zipf_cdf 4096 0.99 in
  let total = ref 0 and hash = ref 0 in
  for _ = 1 to n do
    let context = Random.State.int rng contexts in
    let line =
      if Random.State.bool rng then zipf rng cdf
      else Random.State.int rng (1 lsl 18)
    in
    let kind : Runtime.Ctx.access_kind =
      match Random.State.int rng 20 with
      | k when k < 11 -> Read
      | k when k < 15 -> Write
      | k when k < 18 -> Cas
      | 18 -> Fence
      | _ -> Work (1 + Random.State.int rng 64)
    in
    let cost = Machine.Cache.access c ~context kind ~line in
    total := !total + cost;
    hash := ((!hash * 1_000_003) + cost) land 0xFFFF_FFFF_FFFF
  done;
  let st = Machine.Cache.stats c in
  Machine.Cache.
    (!total, st.l1_hits, st.llc_hits, st.mem_accesses, st.invalidations, !hash)

let test_golden_streams () =
  let open Machine.Config in
  List.iter
    (fun (name, seed, cfg, expected) ->
      let total, l1, llc, mem, inv, hash = golden_stream cfg ~seed ~n:200_000 in
      Alcotest.(check (list int))
        (name ^ ": cost, l1/llc/mem hits, invalidations, hash")
        [ total; l1; llc; mem; inv; hash ]
        (let t, a, b, c, d, h = expected in
         [ t; a; b; c; d; h ]))
    [
      ( "i7-4770", 1, intel_i7_4770,
        (21118773, 16424, 84631, 78942, 25607, 0x6a5031bae593) );
      ( "t4-1", 2, oracle_t4_1,
        (60351372, 3032, 20960, 156144, 38412, 0x6992dd594ac2) );
      ( "tiny-2", 3, tiny ~contexts:2 (),
        (16598038, 9997, 14022, 155972, 3901, 0x1333101adc56) );
      ( "scale-64", 4, scale ~contexts:64,
        (60347732, 2955, 21162, 156064, 38601, 0xff88d8ba9280) );
    ]

(* The flat LRU against a reference recency list (most recent first). *)
let prop_lru_reference =
  let op =
    QCheck.Gen.(
      pair (int_bound 19) (int_bound 40) >|= fun (k, x) ->
      if k < 12 then `Touch x
      else if k < 15 then `Remove x
      else if k < 17 then `Mem x
      else if k < 19 then `Refresh x
      else `Clear)
  in
  let show = function
    | `Touch x -> Printf.sprintf "touch %d" x
    | `Remove x -> Printf.sprintf "remove %d" x
    | `Mem x -> Printf.sprintf "mem %d" x
    | `Refresh x -> Printf.sprintf "refresh %d" x
    | `Clear -> "clear"
  in
  let gen =
    QCheck.Gen.(
      triple (int_range 1 16)
        (oneofl [ 1; 64; 1 lsl 40; -3 ])
        (list_size (0 -- 300) op))
  in
  QCheck.Test.make ~name:"flat LRU matches a reference recency list" ~count:500
    (QCheck.make gen
       ~print:(fun (cap, stride, ops) ->
         Printf.sprintf "cap %d, stride %d: %s" cap stride
           (String.concat "; " (List.map show ops))))
    (fun (cap, stride, ops) ->
      let evicted = ref [] and expected = ref [] in
      let lru =
        Machine.Lru.create ~cap ~on_evict:(fun l -> evicted := l :: !evicted)
      in
      let model = ref [] in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | `Touch x ->
                let l = x * stride in
                Machine.Lru.touch lru l;
                if List.mem l !model then
                  model := l :: List.filter (( <> ) l) !model
                else begin
                  if List.length !model >= cap then begin
                    let victim = List.nth !model (cap - 1) in
                    expected := victim :: !expected;
                    model := List.filter (( <> ) victim) !model
                  end;
                  model := l :: !model
                end;
                true
            | `Remove x ->
                let l = x * stride in
                Machine.Lru.remove lru l;
                model := List.filter (( <> ) l) !model;
                true
            | `Mem x ->
                let l = x * stride in
                Machine.Lru.mem lru l = List.mem l !model
            | `Refresh x ->
                let l = x * stride in
                let cached = List.mem l !model in
                if cached then model := l :: List.filter (( <> ) l) !model;
                Machine.Lru.refresh lru l = cached
            | `Clear ->
                Machine.Lru.clear lru;
                model := [];
                true
          in
          agrees
          && Machine.Lru.size lru = List.length !model
          && !evicted = !expected
          && List.for_all (Machine.Lru.mem lru) !model)
        ops)

(* A warmed cache allocates nothing per access, and creating the largest
   E-scale machine costs less than the list-and-Hashtbl model did. *)
let test_access_allocation () =
  let cfg = Machine.Config.intel_i7_4770 in
  let n = 100_000 in
  let rng = Random.State.make [| 20_000 |] in
  let contexts = Array.init n (fun _ -> Random.State.int rng 4) in
  let lines = Array.init n (fun _ -> Random.State.int rng 20_000) in
  let kinds =
    Array.init n (fun _ : Runtime.Ctx.access_kind ->
        match Random.State.int rng 4 with
        | 0 | 1 -> Read
        | 2 -> Write
        | _ -> Cas)
  in
  let c = Machine.Cache.create cfg in
  let pass () =
    for i = 0 to n - 1 do
      ignore
        (Machine.Cache.access c ~context:contexts.(i) kinds.(i) ~line:lines.(i))
    done
  in
  pass ();
  let w0 = Gc.minor_words () in
  pass ();
  let per_access = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per warmed access < 1" per_access)
    true (per_access < 1.)

let test_create_footprint () =
  (* Bytes the list-and-Hashtbl model allocated for this machine. *)
  let before = 37_944_275. in
  let b0 = Gc.allocated_bytes () in
  let c = Machine.Cache.create (Machine.Config.scale ~contexts:1024) in
  let bytes = Gc.allocated_bytes () -. b0 in
  ignore (Sys.opaque_identity c);
  Alcotest.(check bool)
    (Printf.sprintf "create scale-1024: %.0f bytes <= %.0f" bytes before)
    true (bytes <= before)

(* Simulator scheduling *)

let test_parallel_speedup () =
  (* Two independent processes on two contexts should finish in about the
     time of one, not the sum. *)
  let work ctx = for _ = 1 to 1000 do Runtime.Ctx.work ctx 100 done in
  let run contexts n =
    let group = Runtime.Group.create n in
    let r =
      Sim.run ~machine:(Machine.Config.tiny ~contexts ()) group
        (Array.init n (fun pid () -> work (Runtime.Group.ctx group pid)))
    in
    r.Sim.virtual_time
  in
  let t1 = run 2 1 and t2 = run 2 2 in
  Alcotest.(check bool)
    (Printf.sprintf "2 procs on 2 cores take the same time (%d vs %d)" t1 t2)
    true (t2 < t1 + (t1 / 4))

let test_oversubscription_slowdown () =
  let work ctx = for _ = 1 to 1000 do Runtime.Ctx.work ctx 100 done in
  let run n =
    let group = Runtime.Group.create n in
    let r =
      Sim.run ~machine:(Machine.Config.tiny ~contexts:2 ()) group
        (Array.init n (fun pid () -> work (Runtime.Group.ctx group pid)))
    in
    r.Sim.virtual_time
  in
  let t2 = run 2 and t4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 procs on 2 cores take ~2x (%d vs %d)" t2 t4)
    true
    (t4 > (3 * t2) / 2)

let test_stall_parks_process () =
  let group = Runtime.Group.create 2 in
  let order = ref [] in
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    if pid = 0 then Runtime.Ctx.stall ctx 1_000_000;
    Runtime.Ctx.work ctx 10;
    order := pid :: !order
  in
  ignore
    (Sim.run ~machine:(Machine.Config.tiny ~contexts:1 ()) group
       (Array.init 2 body));
  Alcotest.(check (list int)) "stalled process finishes last" [ 0; 1 ] !order

let test_crash_reported () =
  let group = Runtime.Group.create 2 in
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    Runtime.Ctx.work ctx 10;
    if pid = 1 then Runtime.Ctx.crash ctx
  in
  let r =
    Sim.run ~machine:(Machine.Config.tiny ()) group (Array.init 2 body)
  in
  Alcotest.(check (array bool)) "crash flags" [| false; true |] r.Sim.crashed

(* Determinism: identical runs produce identical traces. *)
let test_sim_deterministic () =
  let run () =
    let group = Runtime.Group.create ~seed:5 3 in
    let v = Runtime.Svar.make 0 in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| pid |] in
      for _ = 1 to 200 do
        if Random.State.bool rng then ignore (Runtime.Svar.faa ctx v 1)
        else ignore (Runtime.Svar.get ctx v)
      done
    in
    let r =
      Sim.run ~machine:(Machine.Config.tiny ~contexts:2 ()) group
        (Array.init 3 body)
    in
    (r.Sim.virtual_time, Runtime.Svar.peek v, r.Sim.context_switches)
  in
  let a = run () and b = run () in
  Alcotest.(check (triple int int int)) "identical outcomes" a b

let test_signal_delivery_before_next_access () =
  let group = Runtime.Group.create 2 in
  let hits = ref 0 in
  let c1 = Runtime.Group.ctx group 1 in
  c1.Runtime.Ctx.handler <- (fun _ -> incr hits);
  let v = Runtime.Svar.make 0 in
  let body pid () =
    let ctx = Runtime.Group.ctx group pid in
    if pid = 0 then
      ignore (Runtime.Group.send_signal group ~from:ctx ~target:1)
    else begin
      (* Wait until the signal flag is set, then one more access runs the
         handler first. *)
      Runtime.Ctx.work ctx 1000;
      ignore (Runtime.Svar.get ctx v)
    end
  in
  ignore (Sim.run ~machine:(Machine.Config.tiny ()) group (Array.init 2 body));
  Alcotest.(check int) "handler ran exactly once" 1 !hits

let () =
  Alcotest.run "machine+sim"
    [
      ( "cache",
        [
          Alcotest.test_case "read costs" `Quick test_read_costs;
          Alcotest.test_case "llc shared within socket" `Quick
            test_llc_shared_within_socket;
          Alcotest.test_case "write invalidation" `Quick test_write_invalidation;
          Alcotest.test_case "same-socket llc survives write" `Quick
            test_same_socket_llc_survives_write;
          Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
          Alcotest.test_case "l1 capacity" `Quick test_l1_capacity_evicts;
          Alcotest.test_case "golden streams" `Quick test_golden_streams;
          QCheck_alcotest.to_alcotest prop_lru_reference;
          Alcotest.test_case "warmed access allocates nothing" `Quick
            test_access_allocation;
          Alcotest.test_case "create footprint" `Quick test_create_footprint;
        ] );
      ( "sim",
        [
          Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
          Alcotest.test_case "oversubscription" `Quick
            test_oversubscription_slowdown;
          Alcotest.test_case "stall parks" `Quick test_stall_parks_process;
          Alcotest.test_case "crash reported" `Quick test_crash_reported;
          Alcotest.test_case "signal before next access" `Quick
            test_signal_delivery_before_next_access;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
          QCheck_alcotest.to_alcotest prop_costs_bounded;
          QCheck_alcotest.to_alcotest prop_repeat_read_is_l1;
        ] );
    ]
