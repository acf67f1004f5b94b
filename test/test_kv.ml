(* The sharded KV/session store (lib/kv) and the open-loop load generator
   (lib/loadgen): codec round-trips, deterministic shard routing, sequential
   store semantics on every index structure, the TTL-expiry retire path
   under the shadow-state sanitizer, and sim-backend determinism for one
   loadgen seed. *)

module Schemes = Workload.Schemes

(* ---------- codec ---------- *)

let roundtrip key value =
  let words = Kv.Codec.data_words ~key ~value in
  let meta = Kv.Codec.meta ~klen:(String.length key) ~vlen:(String.length value) in
  let k', v' = Kv.Codec.decode ~meta ~read:(fun i -> words.(i)) in
  Alcotest.(check string) "key" key k';
  Alcotest.(check string) "value" value v'

let codec_roundtrip () =
  roundtrip "a" "";
  roundtrip "abc" "hello";
  roundtrip "exactly" "seven77";
  (* 7 bytes *)
  roundtrip "eight-by" "boundary-crossing value";
  roundtrip "session:00001234" (String.make 40 'x');
  roundtrip (String.make 20 'k') (String.make 30 '\000');
  roundtrip "bin" "\x00\x7f\xff\x01"

let codec_keys () =
  (* Short keys (<= 7 bytes) are injective: pairwise distinct encodings,
     including length-distinguished prefixes. *)
  let shorts = [ "a"; "b"; "ab"; "ba"; "a\000"; "\000a"; "abcdefg"; "" ] in
  List.iteri
    (fun i ki ->
      List.iteri
        (fun j kj ->
          if i <> j then
            Alcotest.(check bool)
              (Printf.sprintf "distinct %S %S" ki kj)
              true
              (Kv.Codec.encode_key ki <> Kv.Codec.encode_key kj))
        shorts)
    shorts;
  (* Long keys hash into a range disjoint from short packs. *)
  let long = Kv.Codec.encode_key (String.make 64 'q') in
  Alcotest.(check bool) "long below short range" true (long < 1 lsl 59);
  Alcotest.(check bool) "long positive" true (long >= 0);
  (* Deterministic. *)
  Alcotest.(check int) "stable"
    (Kv.Codec.encode_key "session:42")
    (Kv.Codec.encode_key "session:42");
  (* Meta packs/unpacks. *)
  let m = Kv.Codec.meta ~klen:123 ~vlen:4567 in
  Alcotest.(check int) "klen" 123 (Kv.Codec.klen_of m);
  Alcotest.(check int) "vlen" 4567 (Kv.Codec.vlen_of m)

(* ---------- shard routing ---------- *)

module Store = Kv.Store.Make (Schemes.RM2_debra)

let fresh_store ?(structure = "hm_list") ?(shards = 8) () =
  let group = Runtime.Group.create ~seed:11 2 in
  ( Store.create ~structure ~shards ~capacity_per_shard:4096 ~group (),
    Runtime.Group.ctx group 0 )

let routing () =
  let t, _ = fresh_store () in
  let t2, _ = fresh_store () in
  let hits = Array.make (Store.nshards t) 0 in
  for i = 0 to 999 do
    let key = Printf.sprintf "session:%06d" i in
    let s = Store.shard_of_key t key in
    Alcotest.(check bool) "in range" true (s >= 0 && s < Store.nshards t);
    (* Same key, same shard, in any store with the same shard count. *)
    Alcotest.(check int) "deterministic" s (Store.shard_of_key t2 key);
    Alcotest.(check int) "stable" s (Store.shard_of_key t key);
    hits.(s) <- hits.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool) (Printf.sprintf "shard %d used" i) true (n > 0))
    hits

(* ---------- sequential semantics, every structure ---------- *)

let sequential structure () =
  let t, ctx = fresh_store ~structure ~shards:4 () in
  for i = 0 to 199 do
    Store.put t ctx
      ~key:(Printf.sprintf "k%04d" i)
      ~value:(Printf.sprintf "v%d" i)
  done;
  Alcotest.(check int) "size" 200 (Store.size t);
  Alcotest.(check (option string)) "hit" (Some "v7")
    (Store.get t ctx "k0007");
  Alcotest.(check (option string)) "miss" None (Store.get t ctx "k9999");
  (* Upsert replaces. *)
  Store.put t ctx ~key:"k0007" ~value:"fresh";
  Alcotest.(check (option string)) "upsert" (Some "fresh")
    (Store.get t ctx "k0007");
  Alcotest.(check int) "upsert keeps size" 200 (Store.size t);
  (* Long (hashed) keys verify on read. *)
  let long = "session:" ^ String.make 24 'z' in
  Store.put t ctx ~key:long ~value:"zzz";
  Alcotest.(check (option string)) "long key" (Some "zzz")
    (Store.get t ctx long);
  Alcotest.(check bool) "delete wins" true (Store.delete t ctx long);
  Alcotest.(check bool) "delete idempotent" false (Store.delete t ctx long);
  for i = 0 to 99 do
    ignore (Store.delete t ctx (Printf.sprintf "k%04d" i))
  done;
  Alcotest.(check int) "half left" 100 (Store.size t);
  Store.check_invariants t

(* ---------- TTL expiry retire path, sanitized, concurrent ---------- *)

module Ttl_harness (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module S = Kv.Store.Make (RM)

  let scheme = RM.Reclaimer.name

  (* Shard 0's sanitizer and event counter must see shard 0's events only,
     also when [shards] heaps share the group. *)
  let run ~shards () =
    let n = 3 in
    let group = Runtime.Group.create ~seed:5 n in
    let t =
      S.create ~structure:"hm_list" ~shards ~capacity_per_shard:2048 ~group ()
    in
    let heap = (S.heaps t).(0) in
    let san =
      Sanitizer.create ~scheme ~discipline:RM.Reclaimer.discipline ~heap
        ~group
    in
    let retires = ref 0 and allocs = ref 0 in
    let counter =
      Runtime.Ctx.subscriber ~scope:(Memory.Heap.scope heap)
        ~event:(fun _ctx -> function
          | Memory.Smr_event.Retire _ -> incr retires
          | Alloc _ -> incr allocs
          | _ -> ())
        ()
    in
    let allocs0 = Memory.Heap.total_allocs heap in
    Runtime.Group.subscribe group counter;
    let expired_misses = ref 0 in
    Sanitizer.with_checks san (fun () ->
        let body pid () =
          let ctx = Runtime.Group.ctx group pid in
          let rng = Random.State.make [| 5; pid |] in
          for i = 1 to 150 do
            let key = Printf.sprintf "s%d" (Random.State.int rng 24) in
            match i mod 3 with
            | 0 ->
                (* Short-lived session: expires after 3k cycles. *)
                S.put ~ttl:3_000 t ctx ~key ~value:(Printf.sprintf "p%d" pid)
            | 1 ->
                (* Let sessions age past their deadline. *)
                Runtime.Ctx.work ctx 2_000;
                if S.get t ctx key = None then incr expired_misses
            | _ -> ignore (S.delete t ctx key)
          done
        in
        ignore
          (Sim.run
             ~machine:(Machine.Config.tiny ~contexts:4 ())
             group
             (Array.init n body));
        let ctx0 = Runtime.Group.ctx group 0 in
        S.check_invariants t;
        S.flush t ctx0;
        Sanitizer.leak_check san ~limbo_size:(S.shard_limbo t 0));
    Runtime.Group.unsubscribe group counter;
    Alcotest.(check string) (scheme ^ ": sanitizer clean") ""
      (Sanitizer.report san);
    Alcotest.(check bool) (scheme ^ ": retires flowed") true (!retires > 0);
    Alcotest.(check bool)
      (scheme ^ ": expiry observed")
      true (!expired_misses > 0);
    Alcotest.(check int) (scheme ^ ": shard-0 allocs only")
      (Memory.Heap.total_allocs heap - allocs0)
      !allocs;
    Alcotest.(check bool) (scheme ^ ": every shard allocated") true
      (Array.for_all (fun h -> Memory.Heap.total_allocs h > 0) (S.heaps t))
end

let ttl_retire scheme =
  Alcotest.test_case scheme `Quick (fun () ->
      let module RM =
        (val Reclaim.Registry.rm Exp2 (Reclaim.Registry.find scheme))
      in
      let module T = Ttl_harness (RM) in
      T.run ~shards:1 ())

let shard_scoped () =
  let module T = Ttl_harness (Schemes.RM2_debra) in
  T.run ~shards:2 ()

(* ---------- sim determinism for one loadgen seed ---------- *)

let loadgen_plan () =
  let clock = Exec.Clock.sim in
  let mk () =
    Loadgen.generate ~n:500 ~nkeys:64
      ~dist:(Loadgen.Dist.Zipfian 0.99)
      ~mix:{ Loadgen.get = 60; put = 25; delete = 10; scan = 5 }
      ~arrivals:(Loadgen.Arrivals.Poisson 1_000_000.0)
      ~clock ~seed:42
  in
  let a = mk () and b = mk () in
  Alcotest.(check (array int)) "arrivals replay" a.Loadgen.arrivals b.Loadgen.arrivals;
  Alcotest.(check bool) "ops replay" true (a.Loadgen.ops = b.Loadgen.ops);
  (* Arrivals are monotone. *)
  Array.iteri
    (fun i c ->
      if i > 0 then
        Alcotest.(check bool) "monotone" true (c >= a.Loadgen.arrivals.(i - 1)))
    a.Loadgen.arrivals

let open_loop_run () =
  let module E = (val Exec.Backend.runner `Sim) in
  let group = Runtime.Group.create ~seed:9 2 in
  let t =
    Store.create ~structure:"skiplist" ~shards:2 ~capacity_per_shard:4096
      ~group ()
  in
  let ctx0 = Runtime.Group.ctx group 0 in
  for r = 0 to 63 do
    Store.put t ctx0 ~key:(Printf.sprintf "k%03d" r) ~value:"seed"
  done;
  let plan =
    Loadgen.generate ~n:400 ~nkeys:64
      ~dist:(Loadgen.Dist.Zipfian 0.99)
      ~mix:{ Loadgen.get = 70; put = 20; delete = 10; scan = 0 }
      ~arrivals:(Loadgen.Arrivals.Poisson 2_000_000.0)
      ~clock:E.clock ~seed:13
  in
  let key_of r = Printf.sprintf "k%03d" r in
  (* No admission-control layer here: every request is served. *)
  let exec_op ctx ~due:_ op =
    let shard =
      match op with
      | Loadgen.Get r ->
          ignore (Store.get t ctx (key_of r));
          Store.shard_of_key t (key_of r)
      | Loadgen.Put r ->
          Store.put t ctx ~key:(key_of r) ~value:"w";
          Store.shard_of_key t (key_of r)
      | Loadgen.Delete r ->
          ignore (Store.delete t ctx (key_of r));
          Store.shard_of_key t (key_of r)
      | Loadgen.Scan (s, len) ->
          for i = s to s + len - 1 do
            ignore (Store.get t ctx (key_of (i mod 64)))
          done;
          Store.shard_of_key t (key_of s)
    in
    (shard, Loadgen.Served)
  in
  let log = ref [] in
  let record ~pid ~op ~shard ~outcome ~start ~finish =
    Alcotest.(check bool) "served" true (outcome = Loadgen.Served);
    log := (pid, Loadgen.op_kind op, shard, start, finish) :: !log
  in
  let bodies = Loadgen.bodies plan ~group ~record ~exec_op in
  ignore (E.run group bodies);
  Store.check_invariants t;
  (List.length !log, List.sort compare !log, Store.size t)

let open_loop_deterministic () =
  let n1, log1, size1 = open_loop_run () in
  let n2, log2, size2 = open_loop_run () in
  Alcotest.(check int) "all requests served" 400 n1;
  Alcotest.(check int) "same count" n1 n2;
  Alcotest.(check int) "same final size" size1 size2;
  Alcotest.(check bool) "identical request log" true (log1 = log2);
  (* Open-loop accounting: latency runs from the scheduled arrival, so
     finish >= start for every request. *)
  List.iter
    (fun (_, _, _, start, finish) ->
      Alcotest.(check bool) "finish after arrival" true (finish >= start))
    log1

let () =
  Alcotest.run "kv"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick codec_roundtrip;
          Alcotest.test_case "keys" `Quick codec_keys;
        ] );
      ("routing", [ Alcotest.test_case "shards" `Quick routing ]);
      ( "sequential",
        List.map
          (fun s -> Alcotest.test_case s `Quick (sequential s))
          [ "hm_list"; "skiplist"; "bst"; "hash" ] );
      ( "ttl-retire-sanitized",
        List.map ttl_retire [ "debra"; "debra+"; "hp" ]
        @ [ Alcotest.test_case "shard-scoped probe" `Quick shard_scoped ] );
      ( "loadgen",
        [
          Alcotest.test_case "plan replay" `Quick loadgen_plan;
          Alcotest.test_case "open-loop determinism" `Quick
            open_loop_deterministic;
        ] );
    ]
