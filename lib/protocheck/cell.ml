(** One matrix cell: a (structure, scheme) pair explored symbolically.

    The structure runs {e directly} — no simulator, one process — against a
    scripted workload that exercises every lifecycle edge (allocate,
    publish, duplicate-insert abandon, unlink, retire, recycle).
    Concurrency is replaced by the branching {!Oracle}: each explored path
    re-runs the whole script in a fresh world with a different set of
    guard/CAS decisions answered adversarially, so both branches of every
    guard acquisition and every lifecycle CAS reachable within the deny
    budget are visited.  The {!Engine} checks every path against the
    protocol rules; a cell is clean when no path produces a violation or a
    crash. *)

open Reclaim

(* Fresh-world parameters: aggressive knobs so retire/scan/advance paths
   are reached by a short script; enough HP slots for the skiplist's
   towers. *)
let params = { Intf.Params.aggressive with hp_slots = 48 }

let capacity = 512
let single_cap = 64
let pair_window = 2
let path_cap = 256

type path_result = {
  outcome : [ `Ok | `Diverged of string | `Crashed of string ];
  violations : Engine.violation list;
  decisions : int;
  decision_log : string list;
}

module Make (RM : Intf.RECORD_MANAGER) = struct
  module L = Ds.Hm_list.Make (RM)
  module B = Ds.Efrb_bst.Make (RM)
  module Q = Ds.Ms_queue.Make (RM)
  module S = Ds.Skiplist.Make (RM)

  (* Quiescent shutdown: enough operation boundaries to expire every grace
     period, then flush the remaining limbo. *)
  let drain group rm =
    for _ = 1 to 30 do
      Array.iter
        (fun ctx ->
          RM.leave_qstate rm ctx;
          RM.enter_qstate rm ctx)
        group.Runtime.Group.ctxs
    done;
    RM.flush rm (Runtime.Group.ctx group 0)

  (* Scripts hit every lifecycle edge: fresh→publish, fresh→abandon
     (duplicate insert), unlink→retire, miss paths, reuse of a freed key. *)

  let script_list group rm =
    let t = L.create rm ~capacity in
    let ctx = Runtime.Group.ctx group 0 in
    ignore (L.insert t ctx ~key:5 ~value:50);
    ignore (L.insert t ctx ~key:3 ~value:30);
    ignore (L.insert t ctx ~key:8 ~value:80);
    ignore (L.insert t ctx ~key:3 ~value:99);
    (* duplicate: abandon *)
    ignore (L.contains t ctx 3);
    ignore (L.contains t ctx 9);
    ignore (L.delete t ctx 3);
    ignore (L.get t ctx 8);
    ignore (L.delete t ctx 42);
    ignore (L.insert t ctx ~key:3 ~value:31);
    ignore (L.delete t ctx 5)

  let script_bst group rm =
    let t = B.create rm ~capacity in
    let ctx = Runtime.Group.ctx group 0 in
    ignore (B.insert t ctx ~key:5 ~value:50);
    ignore (B.insert t ctx ~key:3 ~value:30);
    ignore (B.insert t ctx ~key:8 ~value:80);
    ignore (B.insert t ctx ~key:5 ~value:99);
    (* duplicate: abandon *)
    ignore (B.contains t ctx 3);
    ignore (B.contains t ctx 9);
    ignore (B.delete t ctx 3);
    ignore (B.get t ctx 8);
    ignore (B.delete t ctx 42);
    ignore (B.insert t ctx ~key:3 ~value:31);
    ignore (B.delete t ctx 5)

  let script_queue group rm =
    let t = Q.create rm ~capacity in
    let ctx = Runtime.Group.ctx group 0 in
    Q.enqueue t ctx 10;
    Q.enqueue t ctx 20;
    Q.enqueue t ctx 30;
    ignore (Q.dequeue t ctx);
    ignore (Q.dequeue t ctx);
    Q.enqueue t ctx 40;
    ignore (Q.dequeue t ctx);
    ignore (Q.dequeue t ctx);
    ignore (Q.dequeue t ctx) (* empty *)

  let script_skiplist group rm =
    let t = S.create rm ~capacity in
    let ctx = Runtime.Group.ctx group 0 in
    ignore (S.insert t ctx ~key:5 ~value:50);
    ignore (S.insert t ctx ~key:3 ~value:30);
    ignore (S.insert t ctx ~key:8 ~value:80);
    ignore (S.insert t ctx ~key:5 ~value:99);
    (* duplicate: abandon *)
    ignore (S.contains t ctx 3);
    ignore (S.contains t ctx 9);
    ignore (S.delete t ctx 3);
    ignore (S.get t ctx 8);
    ignore (S.delete t ctx 42);
    ignore (S.insert t ctx ~key:3 ~value:31);
    ignore (S.delete t ctx 5)

  let script = function
    | Report.List -> script_list
    | Report.Bst -> script_bst
    | Report.Queue -> script_queue
    | Report.Skiplist -> script_skiplist

  (* One symbolic path: a fresh world, the engine on its event stream, the
     oracle answering [Adversary] exactly at the [deny] indices.  A path
     that completes reconciles the shadow limbo ledger with the
     reclaimer's own. *)
  let run_path ~config ~structure ~deny =
    let group = Runtime.Group.create ~seed:1 1 in
    let heap = Memory.Heap.create () in
    let env = Intf.Env.create ~params group heap in
    let rm = RM.create env in
    let eng = Engine.create ~config ~heap ~group () in
    let orc = Oracle.create ~deny () in
    let probe =
      Runtime.Ctx.subscriber ~scope:(Memory.Heap.scope heap)
        ~event:(Engine.on_event eng) ~decide:(Oracle.decide orc) ()
    in
    Runtime.Group.subscribe group probe;
    let outcome =
      try
        script structure group rm;
        drain group rm;
        `Ok
      with
      | Engine.Diverged msg -> `Diverged msg
      | Memory.Arena.Use_after_free _ -> `Crashed "use-after-free trap"
      | Memory.Arena.Double_free _ -> `Crashed "double-free trap"
    in
    Runtime.Group.unsubscribe group probe;
    if outcome = `Ok then
      Sanitizer.leak_check (Engine.shadow eng) ~limbo_size:(RM.limbo_size rm);
    {
      outcome;
      violations = Engine.violations eng;
      decisions = Oracle.decisions orc;
      decision_log = Oracle.log orc;
    }

  (* Fully-guarded structures opt into the strict rule (every access to a
     shared record needs a live protection) under hazard-class schemes; the
     lifecycle-tier structures (bst, skiplist) retain raw traversals by
     design and are checked against the standard retired-access rule. *)
  let strict_for = function
    | Report.List | Report.Queue -> true
    | Report.Bst | Report.Skiplist -> false

  let config_for structure =
    Engine.config ~strict:(strict_for structure) RM.Reclaimer.discipline

  (* Path enumeration: the all-grant path, then every single adversarial
     denial of a branch point it reached, then nearby pairs (deny budget
     2) for depth. *)
  let deny_sets n0 =
    let sets = ref [] in
    for i = n0 - 1 downto 0 do
      for w = pair_window downto 1 do
        if i + w < n0 then sets := [ i; i + w ] :: !sets
      done;
      sets := [ i ] :: !sets
    done;
    List.filteri (fun i _ -> i < path_cap) !sets

  let check structure =
    let config = config_for structure in
    let base = run_path ~config ~structure ~deny:[] in
    let n0 = min base.decisions single_cap in
    let paths =
      (([], base)
      :: List.map
           (fun deny -> (deny, run_path ~config ~structure ~deny))
           (deny_sets n0))
    in
    let diverged = ref 0 and crashed = ref 0 and nviols = ref 0 in
    let counterexample = ref None in
    List.iter
      (fun (deny, p) ->
        (match p.outcome with
        | `Ok -> ()
        | `Diverged _ -> incr diverged
        | `Crashed _ -> incr crashed);
        nviols := !nviols + List.length p.violations;
        if p.violations <> [] && !counterexample = None then
          counterexample :=
            Some
              {
                Report.deny;
                decisions = p.decision_log;
                violations = p.violations;
              })
      paths;
    {
      Report.structure = Report.structure_name structure;
      scheme = RM.Reclaimer.name;
      paths = List.length paths;
      branch_points = base.decisions;
      diverged = !diverged;
      crashed = !crashed;
      violations = !nviols;
      counterexample = !counterexample;
    }
end
