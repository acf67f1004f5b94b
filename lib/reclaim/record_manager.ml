(** Assembling a Record Manager from its three components (paper §6).

    [Make (Alloc) (Pool) (Reclaimer)] is the OCaml rendering of the paper's
    template instantiation: the resulting module satisfies
    {!Intf.RECORD_MANAGER}, and a data structure functorized over that
    signature switches reclamation scheme, pooling policy or allocator by
    changing this single line. *)

module Make
    (A : Intf.ALLOCATOR)
    (MP : Intf.MAKE_POOL)
    (MR : Intf.MAKE_RECLAIMER) : Intf.RECORD_MANAGER = struct
  module Alloc = A
  module Pool = MP (A)
  module Reclaimer = MR (Pool)

  type t = {
    env : Intf.Env.t;
    pool : Pool.t;
    reclaimer : Reclaimer.t;
    pressure : Intf.Pressure.t;
  }

  let scheme_name =
    Printf.sprintf "%s(%s,%s)" Reclaimer.name Pool.name Alloc.name

  let create env =
    let alloc = A.create env in
    let pool = Pool.create env alloc in
    {
      env;
      pool;
      reclaimer = Reclaimer.create env pool;
      pressure = Intf.Pressure.create ();
    }

  let env t = t.env
  let pressure t = t.pressure

  let emergency_reclaim t ctx =
    let freed = Reclaimer.emergency_reclaim t.reclaimer ctx in
    t.pressure.Intf.Pressure.emergency_reclaims <-
      t.pressure.Intf.Pressure.emergency_reclaims + 1;
    t.pressure.Intf.Pressure.emergency_freed <-
      t.pressure.Intf.Pressure.emergency_freed + freed;
    freed

  (* Allocation with graceful degradation: when the arena (or the heap's
     record budget) is exhausted, force reclamation work that the scheme
     would normally amortize — emergency announcement scan plus limbo
     drain — and retry.  A pass that frees something retries immediately
     (it may have freed a different epoch's bag, or a different arena's
     records, than the one we need).  A pass that frees {e nothing} is not
     yet defeat: under a hard budget several processes reach this path
     together, each mid-operation and hence pinning the epoch for the
     others.  The pass itself performs instrumented accesses, so spinning
     here lets the scheduler run the other processes to their operation
     boundaries, after which the epoch moves and the next pass frees.
     Only after [patience] consecutive fruitless passes does the failure
     surface to the data structure. *)
  let patience = 64

  let alloc t ctx arena =
    let rec attempt fruitless =
      try Pool.allocate t.pool ctx arena
      with (Memory.Arena.Out_of_memory _ | Memory.Arena.Arena_full _) as e ->
        if emergency_reclaim t ctx > 0 then attempt 0
        else begin
          t.pressure.Intf.Pressure.alloc_retries <-
            t.pressure.Intf.Pressure.alloc_retries + 1;
          if fruitless + 1 >= patience then raise e else attempt (fruitless + 1)
        end
    in
    attempt 0
  let dealloc t ctx p = Pool.release t.pool ctx p
  let supports_crash_recovery = Reclaimer.supports_crash_recovery
  let allows_retired_traversal = Reclaimer.allows_retired_traversal
  let sandboxed = Reclaimer.sandboxed
  let leave_qstate t ctx = Reclaimer.leave_qstate t.reclaimer ctx
  let enter_qstate t ctx = Reclaimer.enter_qstate t.reclaimer ctx
  let is_quiescent t ctx = Reclaimer.is_quiescent t.reclaimer ctx
  let protect t ctx p ~verify = Reclaimer.protect t.reclaimer ctx p ~verify
  let unprotect t ctx p = Reclaimer.unprotect t.reclaimer ctx p
  let unprotect_all t ctx = Reclaimer.unprotect_all t.reclaimer ctx
  let is_protected t ctx p = Reclaimer.is_protected t.reclaimer ctx p
  let retire t ctx p = Reclaimer.retire t.reclaimer ctx p
  let rprotect t ctx p = Reclaimer.rprotect t.reclaimer ctx p
  let runprotect_all t ctx = Reclaimer.runprotect_all t.reclaimer ctx
  let is_rprotected t ctx p = Reclaimer.is_rprotected t.reclaimer ctx p
  let limbo_size t = Reclaimer.limbo_size t.reclaimer
  let limbo_per_proc t = Reclaimer.limbo_per_proc t.reclaimer
  let epoch_lag t = Reclaimer.epoch_lag t.reclaimer
  let pool_population t = Pool.population t.pool
  let flush t ctx = Reclaimer.flush t.reclaimer ctx

  (* The operation wrapper of Fig. 5: catch neutralization, run recovery in
     a quiescent state, restart when recovery asks for it.  Under a
     sandboxed scheme (StackTrack), an access to reclaimed memory raises
     {!Memory.Arena.Use_after_free} instead of segfaulting; that is the
     simulated transaction abort, and it is recovered from exactly like a
     neutralization: the recover closure either finishes the operation from
     its published descriptor or asks for a restart. *)
  let run_op t ctx ~recover body =
    let rec attempt () =
      match body () with
      | v -> v
      | exception Runtime.Ctx.Neutralized -> (
          match recover () with Some v -> v | None -> attempt ())
      | exception Memory.Arena.Use_after_free _ when Reclaimer.sandboxed -> (
          (* The aborted segment's register file is discarded with it. *)
          Reclaimer.unprotect_all t.reclaimer ctx;
          match recover () with
          | Some v -> v
          | None -> attempt ()
          | exception Memory.Arena.Use_after_free _ -> attempt ())
    in
    attempt ()

  (* Alias the untyped surface the typed wrappers delegate to, before the
     submodule shadows the names. *)
  let untyped_alloc = alloc
  let untyped_run_op = run_op

  (* The typestate facade.  Every wrapper performs exactly the instrumented
     calls of the untyped spelling it replaces — witness bookkeeping is
     plain OCaml state — so converting a data structure to this surface
     changes no schedule and no golden trace. *)
  module Typed = struct
    type session = S
    type guard = { gp : Memory.Ptr.t } [@@unboxed]
    type fresh = { fp : Memory.Ptr.t; mutable spent : bool }
    type unlinked = { up : Memory.Ptr.t; mutable consumed : bool }

    let run_op t ctx ~recover body =
      untyped_run_op t ctx ~recover (fun () -> body S)

    let leave t ctx (_ : session) = Reclaimer.leave_qstate t.reclaimer ctx
    let enter t ctx (_ : session) = Reclaimer.enter_qstate t.reclaimer ctx

    let alloc t ctx arena = { fp = untyped_alloc t ctx arena; spent = false }

    let fresh_ptr f = f.fp

    let spend f ~by =
      if f.spent then
        invalid_arg ("Typed." ^ by ^ ": fresh witness already spent");
      f.spent <- true

    let init t ctx arena f field v =
      ignore t;
      Memory.Arena.write ctx arena f.fp field v

    let init_const t ctx arena f field v =
      ignore t;
      Memory.Arena.set_const ctx arena f.fp field v

    let sentinel _t _ctx f =
      spend f ~by:"sentinel";
      f.fp

    let expose _t _ctx f =
      spend f ~by:"expose";
      f.fp

    let abandon t ctx f =
      spend f ~by:"abandon";
      Pool.release t.pool ctx f.fp

    let acquire t ctx (_ : session) p ~verify =
      if Reclaimer.protect t.reclaimer ctx p ~verify then Some { gp = p }
      else None

    let root_guard _t (_ : session) p = { gp = p }

    let covered _t (_ : session) p =
      if not (Reclaimer.allows_retired_traversal || Reclaimer.sandboxed) then
        invalid_arg
          (Printf.sprintf
             "Typed.covered: %s protects per record, not per session"
             Reclaimer.name);
      { gp = p }

    let ptr g = g.gp
    let release t ctx g = Reclaimer.unprotect t.reclaimer ctx g.gp
    let release_all t ctx = Reclaimer.unprotect_all t.reclaimer ctx
    let read _t ctx arena g field = Memory.Arena.read ctx arena g.gp field
    let write _t ctx arena g field v = Memory.Arena.write ctx arena g.gp field v

    let get_const _t ctx arena g field =
      Memory.Arena.get_const ctx arena g.gp field

    let unlinked p = { up = p; consumed = false }

    let cas_at _t ctx arena container field ~expect word ~publishes ~unlinks =
      if Memory.Arena.cas ctx arena container field ~expect word then begin
        List.iter (fun f -> spend f ~by:"cas_at") publishes;
        Some (List.map unlinked unlinks)
      end
      else None

    let cas t ctx arena g field ~expect word =
      match
        cas_at t ctx arena g.gp field ~expect word ~publishes:[] ~unlinks:[]
      with
      | Some _ -> true
      | None -> false

    let publish_cas t ctx arena g field ~expect f =
      match
        cas_at t ctx arena g.gp field ~expect
          (f.fp : Memory.Ptr.t)
          ~publishes:[ f ] ~unlinks:[]
      with
      | Some _ -> true
      | None -> false

    let cas_unlink t ctx arena g field ~expect word ~unlinks =
      cas_at t ctx arena g.gp field ~expect word ~publishes:[] ~unlinks

    let svar_cas_unlink _t ctx sv ~expect word ~unlinks =
      if Runtime.Svar.cas ctx sv ~expect word then
        Some (List.map unlinked unlinks)
      else None

    let publish_locked _t _ctx (_ : session) f =
      spend f ~by:"publish_locked";
      f.fp

    let unlink_locked _t _ctx (_ : session) p = unlinked p

    let unlinked_ptr w = w.up

    let retire t ctx w =
      if w.consumed then
        invalid_arg "Typed.retire: unlinked witness already consumed";
      (* Consume only once the reclaimer call returns: a neutralization
         raised inside retire (before the limbo insertion) leaves the
         witness live for the recovery path to retire exactly once. *)
      Reclaimer.retire t.reclaimer ctx w.up;
      w.consumed <- true
  end
end
