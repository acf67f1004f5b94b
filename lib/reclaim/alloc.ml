(** Allocators (paper §7).

    [Bump]: each process carves records out of a preallocated region; freed
    records are never handed back (Experiments 1 and 2).  In the arena model
    this is [claim_fresh] + leak-on-deallocate, so the bump cursor measures
    exactly the paper's "total memory allocated for records".

    [Malloc]: a free-list allocator standing in for the system allocator of
    Experiment 3; each call pays an extra configurable cycle cost, modelling
    malloc being uniformly slower than bump allocation. *)

module Bump : Intf.ALLOCATOR = struct
  type t = Intf.Env.t

  let name = "bump"
  let create env = env
  let allocate _ ctx arena = Memory.Arena.claim_fresh ctx arena

  let deallocate env ctx p =
    Memory.Heap.release env.Intf.Env.heap ctx p ~recycle:false
end

(** [Recycle]: a free-list allocator with no extra cost, but — unlike the
    pool's direct reuse — every reclaimed record passes through the arena,
    bumping its slot generation.  StackTrack must be paired with this (via
    [Pool.Direct]): its sandboxing detects accesses to reclaimed memory
    through generation mismatches, which play the role of the HTM conflict
    a re-user's write would cause.  Other schemes never read reclaimed
    records, so they may use the cheaper direct-reuse pool. *)
module Recycle : Intf.ALLOCATOR = struct
  type t = Intf.Env.t

  let name = "recycle"
  let create env = env

  let allocate _ ctx arena =
    match Memory.Arena.claim_recycled ctx arena with
    | Some p -> p
    | None -> Memory.Arena.claim_fresh ctx arena

  let deallocate env ctx p =
    Memory.Heap.release env.Intf.Env.heap ctx p ~recycle:true
end

(* Extra cycles charged per malloc-style allocation or deallocation. *)
let malloc_cost = 120

module Malloc : Intf.ALLOCATOR = struct
  type t = Intf.Env.t

  let name = "malloc"
  let create env = env

  let allocate _ ctx arena =
    Runtime.Ctx.work ctx malloc_cost;
    match Memory.Arena.claim_recycled ctx arena with
    | Some p -> p
    | None -> Memory.Arena.claim_fresh ctx arena

  let deallocate env ctx p =
    Runtime.Ctx.work ctx malloc_cost;
    Memory.Heap.release env.Intf.Env.heap ctx p ~recycle:true
end
