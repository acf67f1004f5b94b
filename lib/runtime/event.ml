(** The one closed event type a context's probe delivers (see {!Ctx}),
    re-exported as [Memory.Smr_event]; pointer payloads are [Memory.Ptr.t],
    an [int].  It covers the record lifecycle, the protection and
    quiescence protocols, and the reclamation control plane (observability
    only).  A shadow checker sees every transition
    before the arena's own generation check can raise: [Free] and [Access]
    fire before validation, and protection events fire while the
    announcement is visible to concurrent scanners. *)

type access = Read | Write | Cas

type t =
  | Alloc of int  (** record claimed from its arena *)
  | Free of int  (** record released to its arena (generation bumped) *)
  | Access of int * access  (** instrumented field access *)
  | Pool_put of int
      (** record entered a reuse pool {e without} passing through the arena:
          it may be handed out again with the same generation *)
  | Pool_take of int  (** record left a reuse pool to be reused *)
  | Retire of int  (** record handed to a reclaimer *)
  | Protect of int  (** announcement visible (HP slot, RC count, TS root) *)
  | Unprotect of int  (** announcement about to be retracted *)
  | Unprotect_all  (** all of this process' announcements retracted *)
  | Enter_q  (** process entered a quiescent state / passed a q-point *)
  | Leave_q  (** process left its quiescent state (operation begins) *)
  | Rprotect of int  (** DEBRA+ recovery announcement visible *)
  | Runprotect_all  (** all recovery announcements retracted *)
  | Epoch_advance of int
      (** this process' CAS moved the global epoch/clock to the payload *)
  | Signal_sent of int  (** neutralization signal sent to process [target] *)
  | Sweep of int
      (** a reclamation sweep (rotation, scan, batch drain) handed the
          payload's worth of records to the pool *)
