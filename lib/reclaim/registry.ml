(** The scheme registry: one entry per reclamation scheme, and the one place
    a scheme is paired with an allocator and a pool (paper §6: switching
    scheme, pool or allocator is one instantiation).

    Every campaign, matrix and test picks its schemes from {!all} by name
    and gets its Record Manager from {!rm}; nothing else applies
    {!Record_manager.Make} to a production scheme.  Registering a scheme
    is its reclaimer file (which declares [name], [discipline],
    [robustness] and [Make], see {!Intf.SCHEME}) plus one line in {!all}. *)

(** How a scheme's freed records may come back for reuse — its pairing
    constraint.

    - [Pooled]: through whatever pool the variant puts behind it.
    - [Unpooled]: never behind the shared pool; frees go straight to the
      allocator.  [none] frees nothing, so a pool would only cost; the
      deliberately broken test schemes need every premature free to reach
      the arena, whose generation check is what traps the stale access.
    - [Arena]: every free must pass through the arena and bump the slot
      generation ([Recycle] allocator, [Direct] pool): StackTrack's sandbox
      and VBR's versions {e are} those generations.  Where the variant's
      allocator already recycles through the arena ([Malloc]) only the pool
      is forced to [Direct]. *)
type reuse = Pooled | Unpooled | Arena

type entry = {
  name : string;
  reclaimer : (module Intf.MAKE_RECLAIMER);
  discipline : Memory.Discipline.t;
  robustness : Intf.Robustness.t;
  reuse : reuse;
}

let entry ?(reuse = Pooled) (module S : Intf.SCHEME) =
  {
    name = S.name;
    reclaimer = (module S.Make);
    discipline = S.discipline;
    robustness = S.robustness;
    reuse;
  }

(** Every production scheme, in the canonical column order of the
    verification matrices. *)
let all =
  [
    entry ~reuse:Unpooled (module None_reclaimer);
    entry (module Ebr);
    entry (module Qsbr);
    entry (module Debra);
    entry (module Debra_plus);
    entry (module Hp);
    entry (module Rc);
    entry (module Threadscan);
    entry ~reuse:Arena (module Stacktrack);
    entry ~reuse:Arena (module Vbr);
    entry (module Hyaline);
  ]

let names = List.map (fun e -> e.name) all

let find name =
  match List.find_opt (fun e -> e.name = name) all with
  | Some e -> e
  | None -> invalid_arg ("Registry: unknown scheme " ^ name)

(** The paper's §5 bound, as DEBRA+ declares it: the limbo yardstick the
    fault campaigns print, size their watermarks by, and set the growth
    floor of unbounded schemes from. *)
let paper_bound ~n params =
  match (find "debra+").robustness with
  | Intf.Robustness.Bounded bound -> bound ~n params
  | Unbounded why -> invalid_arg ("Registry: DEBRA+ declared unbounded: " ^ why)

(** A fault campaign's verdict on [e]'s limbo after a process stopped
    mid-operation ({!Intf.Robustness.verdict}), unbounded growth being
    judged against a quarter of the paper's bound: far above every
    scheme's fault-free steady state at bench scale, far below where
    pinned growth lands. *)
let limbo_verdict e ~n params ~limbo =
  Intf.Robustness.verdict e.robustness ~n params
    ~floor:(paper_bound ~n params / 4)
    ~limbo

(** The allocator/pool pairings the campaigns use.

    - [Exp1] (paper Experiment 1): bump allocator, no pool — reclamation
      work without reuse, for every scheme.
    - [Exp2] (Experiment 2): bump allocator behind the shared pool.
    - [Exp3] (Experiment 3): malloc-style allocator behind the shared pool.
    - [Check] (sanitizer fuzz): as [Exp2], except that
      schemes whose frees wait on a hazard scan skip the pool too, so the
      arena's generation check is a faithful freed-record oracle for
      them.

    Each scheme's {!reuse} constraint overrides the pool (and, under
    [Exp2]/[Check], the allocator); [Exp1] reuses nothing, so it needs no
    override. *)
type variant = Exp1 | Exp2 | Exp3 | Check

type alloc = Bump | Recycle | Malloc
type pool = Direct | Shared

let pairing variant e =
  match (variant, e.reuse) with
  | Exp1, _ -> (Bump, Direct)
  | (Exp2 | Check), Arena -> (Recycle, Direct)
  | (Exp2 | Check), Unpooled -> (Bump, Direct)
  | Check, Pooled when e.discipline.Memory.Discipline.free = Hazard_scan ->
      (Bump, Direct)
  | (Exp2 | Check), Pooled -> (Bump, Shared)
  | Exp3, (Unpooled | Arena) -> (Malloc, Direct)
  | Exp3, Pooled -> (Malloc, Shared)

let assemble (alloc, pool) (module R : Intf.MAKE_RECLAIMER) :
    (module Intf.RECORD_MANAGER) =
  let (module A : Intf.ALLOCATOR) =
    match alloc with
    | Bump -> (module Alloc.Bump)
    | Recycle -> (module Alloc.Recycle)
    | Malloc -> (module Alloc.Malloc)
  in
  let (module P : Intf.MAKE_POOL) =
    match pool with
    | Direct -> (module Pool.Direct)
    | Shared -> (module Pool.Shared)
  in
  (module Record_manager.Make (A) (P) (R))

(** [memo f] applies [f] at most once per (variant, scheme name): the way
    every per-scheme functor (Record Manager, trial runner, harness, matrix
    cell) is instantiated once however many trials or schedules use it.
    Safe to call from several domains. *)
let memo f =
  let tbl = Hashtbl.create 16 in
  let lock = Mutex.create () in
  fun variant e ->
    Mutex.protect lock (fun () ->
        let key = (variant, e.name) in
        match Hashtbl.find_opt tbl key with
        | Some v -> v
        | None ->
            let v = f variant e in
            Hashtbl.add tbl key v;
            v)

(** The Record Manager of scheme [e] under [variant]'s pairing. *)
let rm : variant -> entry -> (module Intf.RECORD_MANAGER) =
  memo (fun variant e -> assemble (pairing variant e) e.reclaimer)
