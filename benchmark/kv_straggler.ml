(** [kv-straggler]: the sharded KV store under open-loop Poisson load on
    the simulator, with one process parked mid-operation on shard 0.

    Four workers serve a precomputed request plan ({!Loadgen.generate});
    pid 4 is the straggler: a quarter of the way into the schedule it parks
    inside an operation on shard 0 ({!Kv.Store.hold_shard}) for 1 ms of
    virtual time, pinning that shard's epoch until DEBRA+ neutralizes it.
    Latency runs from each request's scheduled arrival, so queueing behind
    a stall is charged to the requests that waited.

    Everything the virtual clock decides repeats exactly from the seed;
    the check compares that record across repetitions (and between the
    traced and untraced runs), verifies the store's invariants, and checks
    every read and the final contents against the values keys were
    written with. *)

let workers = 4
let straggler = workers
let shards = 4
let nkeys = 4_096
let requests = 50_000

(* About 60% of what four workers serve on the modelled machine when every
   request is due at time 0 (measured once, then fixed here so load does
   not follow the code under test). *)
let rate = 6.8e6

let key_of_rank r =
  if r land 1 = 0 then Printf.sprintf "k%d" r else Printf.sprintf "session:%08d" r

let value_of_rank r = Printf.sprintf "value-%d" r
let clock = Exec.Clock.sim
let us_of_cycles c = Exec.Clock.ns_of_cycles clock c /. 1e3

module Make (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module Store = Kv.Store.Make (RM)

  let rep ~traced ~seed =
    let t0 = Metrics.now_ns () in
    let plan =
      Loadgen.generate ~n:requests ~nkeys ~dist:(Loadgen.Dist.Zipfian 0.99)
        ~mix:(Option.get (Loadgen.mix_of_string "session"))
        ~arrivals:(Loadgen.Arrivals.Poisson rate) ~clock ~seed
    in
    let keys = Array.init nkeys key_of_rank in
    let values = Array.init nkeys value_of_rank in
    let group = Runtime.Group.create ~seed (workers + 1) in
    let store =
      Store.create ~structure:"skiplist" ~shards
        ~capacity_per_shard:(nkeys + 16_384) ~group ()
    in
    let ctx0 = Runtime.Group.ctx group 0 in
    Array.iteri (fun r k -> Store.put store ctx0 ~key:k ~value:values.(r)) keys;
    Array.iter Runtime.Ctx.reset_stats group.Runtime.Group.ctxs;
    if traced then begin
      Span.set_clock Runtime.Ctx.now;
      Span.limbo_gauge := (fun () -> Store.limbo store);
      (* The straggler issues no requests; its parked operation is not a
         span of the workload. *)
      Span.reset ~n:workers ~cycles_per_us:(Exec.Clock.cycles_per_us clock)
    end;
    let lat = Array.make requests 0 and late = Array.make requests 0 in
    let served = ref 0 and wrong_reads = ref 0 in
    let started = Array.make (workers + 1) 0 in
    let serve ctx = function
      | Loadgen.Get r ->
          (match Store.get store ctx keys.(r) with
          | Some v when not (String.equal v values.(r)) -> incr wrong_reads
          | _ -> ());
          r
      | Loadgen.Put r ->
          Store.put store ctx ~key:keys.(r) ~value:values.(r);
          r
      | Loadgen.Delete r ->
          ignore (Store.delete store ctx keys.(r));
          r
      | Loadgen.Scan _ -> invalid_arg "kv-straggler: the session mix has no scans"
    in
    let kind = function
      | Loadgen.Get _ -> Span.k_kv_get
      | Loadgen.Put _ -> Span.k_kv_put
      | Loadgen.Delete _ | Loadgen.Scan _ -> Span.k_kv_delete
    in
    let exec_op ctx ~due:_ op =
      started.(ctx.Runtime.Ctx.pid) <- Runtime.Ctx.now ctx;
      if traced then Span.enter ctx (kind op);
      let r =
        match serve ctx op with
        | r ->
            if traced then Span.leave ctx;
            r
        | exception e -> if traced then Span.unwind ctx e else raise e
      in
      (Store.shard_of_key store keys.(r), Loadgen.Served)
    in
    (* Requests due before [warm] fill the simulated caches and are not
       part of the latency sample: the first arrivals find every line cold
       and queue behind each other, a start-up transient no later request
       pays. *)
    let warm = plan.Loadgen.arrivals.(requests / 10) in
    let measured = ref 0 in
    let record ~pid ~op:_ ~shard:_ ~outcome:_ ~start ~finish =
      if start >= warm then begin
        lat.(!measured) <- finish - start;
        late.(!measured) <- started.(pid) - start;
        incr measured
      end;
      incr served
    in
    let bodies = Loadgen.bodies plan ~group ~record ~exec_op in
    let park_at = plan.Loadgen.arrivals.(requests / 4) in
    bodies.(straggler) <-
      (fun () ->
        let ctx = Runtime.Group.ctx group straggler in
        Runtime.Ctx.stall ctx (park_at - Runtime.Ctx.now ctx);
        Runtime.Ctx.work ctx 1;
        Store.hold_shard store ctx ~shard:0
          ~cycles:(Exec.Clock.cycles_of_ms clock 1));
    let (module E : Exec.Intf.RUNNER) = Exec.Backend.runner `Sim in
    let setup_s = Metrics.seconds_since t0 in
    let w0 = Gc.minor_words () in
    let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
    let result = E.run group bodies in
    let minor_words = Gc.minor_words () -. w0 in
    let recorded = Span.stop () in
    let spans = if traced then Some (Span.summary recorded) else None in
    let n = !measured in
    let problems =
      (if !served = requests then []
       else [ Printf.sprintf "%d of %d requests served" !served requests ])
      @ (if !wrong_reads = 0 then []
         else [ Printf.sprintf "%d reads returned another key's value" !wrong_reads ])
      @ (match Store.check_invariants store with
        | () -> []
        | exception e -> [ "invariants: " ^ Printexc.to_string e ])
      @
      let present = ref 0 and wrong = ref 0 in
      Array.iteri
        (fun r k ->
          match Store.get store ctx0 k with
          | None -> ()
          | Some v ->
              incr present;
              if not (String.equal v values.(r)) then incr wrong)
        keys;
      (if !wrong = 0 then []
       else [ Printf.sprintf "%d keys hold another key's value" !wrong ])
      @
      if Store.size store = !present then []
      else
        [ Printf.sprintf "store size %d, %d keys readable" (Store.size store) !present ]
    in
    let wall_s = result.Exec.Intf.wall_seconds in
    let per_shard = Array.make shards 0 in
    Array.iter
      (fun op ->
        match op with
        | Loadgen.Get r | Loadgen.Put r | Loadgen.Delete r ->
            let k = Store.shard_of_key store keys.(r) in
            per_shard.(k) <- per_shard.(k) + 1
        | Loadgen.Scan _ -> ())
      plan.Loadgen.ops;
    let accesses =
      Runtime.Group.sum_stats group Runtime.Ctx.stats_total_accesses
    in
    let layers =
      [
        ("gc.minor_words_per_op", minor_words /. float_of_int requests);
        ( "gc.minor_collections_per_s",
          float_of_int ((Gc.quick_stat ()).Gc.minor_collections - gc0) /. wall_s );
        ( "sim.switches_per_op",
          float_of_int result.Exec.Intf.context_switches /. float_of_int requests );
        ("sim.accesses_per_wall_s", float_of_int accesses /. wall_s);
        ( "kv.shard_max_share",
          float_of_int (Array.fold_left max 0 per_shard) /. float_of_int requests );
        ("loadgen.late_p99_us", us_of_cycles (Metrics.percentile late ~len:n 0.99));
      ]
      @ Metrics.context_layers group ~ops:requests ~pressure:(Store.pressure store)
      @
      match spans with
      | None -> []
      | Some sp ->
          Metrics.span_layers sp ~ns_of_ticks:(fun c ->
              c /. Exec.Clock.cycles_per_ns clock)
    in
    let virtual_values =
      Array.concat
        [
          [|
            result.Exec.Intf.elapsed_cycles;
            result.Exec.Intf.context_switches;
            accesses;
            Runtime.Group.sum_stats group (fun s -> s.Runtime.Ctx.neutralized);
            Store.size store;
            Store.limbo store;
          |];
          Array.map Memory.Heap.bytes_peak (Store.heaps store);
          Array.sub lat 0 n;
          Array.sub late 0 n;
        ]
    in
    {
      Metrics.setup_s;
      units = !served;
      wall_s;
      p50_us = us_of_cycles (Metrics.percentile lat ~len:n 0.5);
      p99_us = us_of_cycles (Metrics.percentile lat ~len:n 0.99);
      peak_mib =
        float_of_int
          (Array.fold_left (fun a h -> a + Memory.Heap.bytes_peak h) 0 (Store.heaps store))
        /. 1048576.;
      attempted = requests;
      failed = (if problems = [] then 0 else requests);
      problems;
      layers;
      virtual_values;
      spans = recorded;
    }
end

open Reclaim
module Plain = Make (Record_manager.Make (Alloc.Bump) (Pool.Shared) (Debra_plus.Make))

module Traced =
  Make
    (Timed.Rm
       (Record_manager.Make
          (Timed.Alloc (Alloc.Bump))
          (Timed.Pool (Pool.Shared))
          (Timed.Reclaimer (Debra_plus.Make))))

let rep ~traced = if traced then Traced.rep ~traced else Plain.rep ~traced
