(** The two closed-loop set workloads on real domains: [bst-update]
    (EFRB BST, DEBRA+) and [list-read] (Harris-Michael list, HP).

    One repetition builds a fresh structure, prefills it, starts the
    workers behind a barrier (so domain spawn is set-up, not measured
    time), runs the mix for a fixed wall-clock window, and checks the
    result: the structure's invariants hold and its final size equals the
    prefill plus successful inserts minus successful deletes. *)

type cfg = {
  workers : int;
  range : int;  (** keys are uniform in [1, range] *)
  prefill : int;
  ins : int;  (** percent inserts *)
  del : int;  (** percent deletes; the rest are searches *)
}

let bst_update = { workers = 2; range = 10_000; prefill = 5_000; ins = 50; del = 50 }
let list_read = { workers = 2; range = 2_000; prefill = 1_000; ins = 5; del = 5 }

module Make (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module Face = Workload.Set_adapter.Face (RM)

  let rep (module S : Face.SET) cfg ~traced ~seed ~seconds =
    let t0 = Metrics.now_ns () in
    let n = cfg.workers in
    let group = Runtime.Group.create ~seed n in
    let heap = Memory.Heap.create () in
    let rm = RM.create (Reclaim.Intf.Env.create group heap) in
    let s = S.create rm ~capacity:(cfg.range + 200_000) in
    let ctx0 = Runtime.Group.ctx group 0 in
    let rng = Random.State.make [| seed; 4242 |] in
    let filled = ref 0 in
    while !filled < cfg.prefill do
      let key = 1 + Random.State.int rng cfg.range in
      if S.insert s ctx0 ~key ~value:key then incr filled
    done;
    Array.iter Runtime.Ctx.reset_stats group.Runtime.Group.ctxs;
    if traced then begin
      Span.set_clock (fun _ -> Metrics.now_ns ());
      Span.limbo_gauge := (fun () -> RM.limbo_size rm);
      Span.reset ~n ~cycles_per_us:1000.
    end;
    let window = int_of_float (seconds *. 1e9) in
    let ready = Atomic.make 0 and go = Atomic.make 0 in
    let ops = Array.make n 0 and ins_ok = Array.make n 0 and del_ok = Array.make n 0 in
    let ends = Array.make n 0 and minor_words = Array.make n 0. in
    let lat = Array.init n (fun _ -> Telemetry.Histogram.create ~sub_bits:10 ()) in
    let body pid () =
      let ctx = Runtime.Group.ctx group pid in
      let rng = Random.State.make [| seed; pid; 41 |] in
      let h = lat.(pid) in
      Atomic.incr ready;
      while Atomic.get ready < n do
        Domain.cpu_relax ()
      done;
      ignore (Atomic.compare_and_set go 0 (Metrics.now_ns ()));
      let deadline = Atomic.get go + window in
      let w0 = Gc.minor_words () in
      let nops = ref 0 and nins = ref 0 and ndel = ref 0 in
      let t = ref (Metrics.now_ns ()) in
      while !t < deadline do
        let key = 1 + Random.State.int rng cfg.range in
        let r = Random.State.int rng 100 in
        if traced then Span.enter ctx Span.k_op;
        (match
           if r < cfg.ins then begin
             if S.insert s ctx ~key ~value:key then incr nins
           end
           else if r < cfg.ins + cfg.del then begin
             if S.delete s ctx key then incr ndel
           end
           else ignore (S.contains s ctx key)
         with
        | () -> if traced then Span.leave ctx
        | exception e -> if traced then Span.unwind ctx e else raise e);
        let t1 = Metrics.now_ns () in
        Telemetry.Histogram.record h (t1 - !t);
        t := t1;
        incr nops
      done;
      minor_words.(pid) <- Gc.minor_words () -. w0;
      ops.(pid) <- !nops;
      ins_ok.(pid) <- !nins;
      del_ok.(pid) <- !ndel;
      ends.(pid) <- !t
    in
    let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
    let (module E : Exec.Intf.RUNNER) = Exec.Backend.runner `Domains in
    let spawn = Metrics.now_ns () in
    ignore (E.run group (Array.init n body));
    let joined = Metrics.now_ns () in
    let recorded = Span.stop () in
    let spans = if traced then Some (Span.summary recorded) else None in
    let go = Atomic.get go in
    let last = Array.fold_left max 0 ends in
    let wall_s = float_of_int (last - go) /. 1e9 in
    let total = Array.fold_left ( + ) 0 ops in
    let expected =
      cfg.prefill + Array.fold_left ( + ) 0 ins_ok - Array.fold_left ( + ) 0 del_ok
    in
    let problems =
      (match S.check_invariants s with
      | () -> []
      | exception e -> [ "invariants: " ^ Printexc.to_string e ])
      @
      let size = S.size s in
      if size = expected then []
      else [ Printf.sprintf "final size %d, expected %d" size expected ]
    in
    let all = Telemetry.Histogram.create ~sub_bits:10 () in
    Array.iter (fun h -> Telemetry.Histogram.merge_into h ~into:all) lat;
    let us q = float_of_int (Telemetry.Histogram.quantile all q) /. 1e3 in
    let layers =
      [
        ( "gc.minor_words_per_op",
          Array.fold_left ( +. ) 0. minor_words /. float_of_int (max 1 total) );
        ( "gc.minor_collections_per_s",
          float_of_int ((Gc.quick_stat ()).Gc.minor_collections - gc0) /. wall_s );
        ( "exec.spawn_join_ms",
          float_of_int (go - spawn + (joined - last)) /. 1e6 );
      ]
      @ Metrics.context_layers group ~ops:total ~pressure:(RM.pressure rm)
      @
      match spans with
      | None -> []
      | Some sp -> Metrics.span_layers sp ~ns_of_ticks:Fun.id
    in
    {
      Metrics.setup_s = float_of_int (go - t0) /. 1e9;
      units = total;
      wall_s;
      p50_us = us 0.5;
      p99_us = us 0.99;
      peak_mib = float_of_int (Memory.Heap.bytes_peak heap) /. 1048576.;
      attempted = total;
      failed = (if problems = [] then 0 else total);
      problems;
      layers;
      virtual_values = [||];
      spans = recorded;
    }
end

open Reclaim

module Bst_plain = Make (Record_manager.Make (Alloc.Bump) (Pool.Shared) (Debra_plus.Make))

module Bst_timed =
  Make
    (Timed.Rm
       (Record_manager.Make
          (Timed.Alloc (Alloc.Bump))
          (Timed.Pool (Pool.Shared))
          (Timed.Reclaimer (Debra_plus.Make))))

module List_plain = Make (Record_manager.Make (Alloc.Bump) (Pool.Shared) (Hp.Make))

module List_timed =
  Make
    (Timed.Rm
       (Record_manager.Make
          (Timed.Alloc (Alloc.Bump))
          (Timed.Pool (Pool.Shared))
          (Timed.Reclaimer (Hp.Make))))

let bst ~traced =
  if traced then Bst_timed.rep Bst_timed.Face.bst bst_update ~traced
  else Bst_plain.rep Bst_plain.Face.bst bst_update ~traced

let list ~traced =
  if traced then List_timed.rep List_timed.Face.hm_list list_read ~traced
  else List_plain.rep List_plain.Face.hm_list list_read ~traced
