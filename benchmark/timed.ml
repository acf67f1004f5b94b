(** Timing functors: each Record Manager component wrapped from outside the
    library, so a traced instantiation reads

    {[
      Timed.Rm
        (Reclaim.Record_manager.Make
           (Timed.Alloc (Reclaim.Alloc.Bump))
           (Timed.Pool (Reclaim.Pool.Shared))
           (Timed.Reclaimer (Reclaim.Debra_plus.Make)))
    ]}

    and the plain instantiation is the same line without the wrappers.
    Every wrapper delegates to exactly the call it names, inside a
    {!Span} bracket; the only added work is host-side, so the simulated
    access sequence is unchanged. *)

open Reclaim

module Alloc (A : Intf.ALLOCATOR) : Intf.ALLOCATOR = struct
  include A

  let allocate t ctx arena = Span.span3 Span.k_alloc_allocate A.allocate t ctx arena
  let deallocate t ctx p = Span.span3 Span.k_alloc_deallocate A.deallocate t ctx p
end

module Pool (MP : Intf.MAKE_POOL) (A : Intf.ALLOCATOR) :
  Intf.POOL with module Alloc = A = struct
  module P = MP (A)
  include P

  let allocate t ctx arena = Span.span3 Span.k_pool_allocate P.allocate t ctx arena
  let release t ctx p = Span.span3 Span.k_pool_release P.release t ctx p

  let release_block t ctx b =
    Span.span3 Span.k_pool_release P.release_block t ctx b
end

module Reclaimer (MR : Intf.MAKE_RECLAIMER) (P : Intf.POOL) :
  Intf.RECLAIMER with module Pool = P = struct
  module R = MR (P)
  include R

  let leave_qstate t ctx = Span.span2 Span.k_leave R.leave_qstate t ctx
  let enter_qstate t ctx = Span.span2 Span.k_enter R.enter_qstate t ctx

  let protect t ctx p ~verify =
    Span.enter ctx Span.k_protect;
    match R.protect t ctx p ~verify with
    | v ->
        Span.leave ctx;
        v
    | exception e -> Span.unwind ctx e

  let unprotect t ctx p = Span.span3 Span.k_unprotect R.unprotect t ctx p
  let unprotect_all t ctx = Span.span2 Span.k_unprotect R.unprotect_all t ctx
  let retire t ctx p = Span.span3 Span.k_retire R.retire t ctx p

  let emergency_reclaim t ctx =
    Span.span2 Span.k_emergency R.emergency_reclaim t ctx
end

(** Counts outcomes at the typed surface: CAS attempts and successes, guard
    acquisitions and refusals.  Counting needs no clock, so these wrappers
    open no span. *)
module Rm (RM : Intf.RECORD_MANAGER) : Intf.RECORD_MANAGER = struct
  include (
    RM :
      module type of struct
        include RM
      end
      with module Typed := RM.Typed)

  module Typed = struct
    include RM.Typed

    let cas_outcome ctx ok =
      Span.bump ctx Span.c_cas;
      if ok then Span.bump ctx Span.c_cas_ok;
      ok

    let cas_witness ctx r =
      ignore (cas_outcome ctx (Option.is_some r));
      r

    let acquire t ctx s p ~verify =
      let g = RM.Typed.acquire t ctx s p ~verify in
      Span.bump ctx Span.c_acquire;
      if Option.is_none g then Span.bump ctx Span.c_acquire_fail;
      g

    let cas t ctx arena g field ~expect word =
      cas_outcome ctx (RM.Typed.cas t ctx arena g field ~expect word)

    let publish_cas t ctx arena g field ~expect f =
      cas_outcome ctx (RM.Typed.publish_cas t ctx arena g field ~expect f)

    let cas_at t ctx arena container field ~expect word ~publishes ~unlinks =
      cas_witness ctx
        (RM.Typed.cas_at t ctx arena container field ~expect word ~publishes
           ~unlinks)

    let cas_unlink t ctx arena g field ~expect word ~unlinks =
      cas_witness ctx
        (RM.Typed.cas_unlink t ctx arena g field ~expect word ~unlinks)

    let svar_cas_unlink t ctx sv ~expect word ~unlinks =
      cas_witness ctx (RM.Typed.svar_cas_unlink t ctx sv ~expect word ~unlinks)
  end
end
