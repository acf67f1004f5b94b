(** The experiment matrix: a uniform trial runner per (pairing variant,
    scheme, structure), each panel's scheme columns, and the panel driver
    that sweeps process counts and prints one table per figure panel.
    Record Managers come from {!Reclaim.Registry}; the variants follow the
    paper's experiments ([Exp1]: bump allocator, no pool; [Exp2]: bump
    allocator behind the shared pool; [Exp3]: malloc-style allocator behind
    the shared pool). *)

open Reclaim

type cfg = {
  backend : Exec.Backend.t;
      (** execution backend: [`Sim] (deterministic virtual time, the
          default everywhere) or [`Domains] (real OCaml 5 parallelism) *)
  machine : Machine.Config.t;
  params : Intf.Params.t;
  duration : int;
  n : int;
  range : int;
  ins : int;
  del : int;
  seed : int;
  capacity : int;
  sanitize : bool;  (** run the trial under the shadow-state sanitizer *)
  telemetry : Telemetry.Recorder.t option;
      (** attach a telemetry recorder: latency histograms, gauge time
          series, optional Chrome trace *)
  stall : (int * int) option;
      (** [(at, cycles)]: park the highest-pid process mid-operation at
          virtual time [at] for [cycles] — the E-stall campaign *)
  chaos : Chaos.plan option;
      (** fault-injection plan (crashes, signal faults, memory budget);
          armed after the prefill — the E-crash / E-oom campaigns *)
  budget : int;
      (** bounded-memory mode: headroom in records the trial may claim
          beyond what the prefill left claimed; negative = unlimited *)
  max_steps : int option;
      (** scheduler step budget: livelocks and fault-induced wedges raise
          {!Sim.Stuck} instead of spinning forever *)
  history : Lincheck.History.recorder option;
      (** record every operation (prefill included) as an
          invocation/response history for the linearizability checker *)
}

type runner = { rname : string; run : cfg -> Trial.outcome }

(* Resolve a cfg's backend to a RUNNER first-class module.  The sim knobs
   (machine model, step budget) configure the simulator; the domains
   backend ignores them and runs on the wall clock. *)
let exec_of cfg =
  Exec.Backend.runner ~machine:cfg.machine ?max_steps:cfg.max_steps
    cfg.backend

(* The Experiment 1/2 Record Managers under their registry pairings, by
   module name (the repository benchmark's explore-b2 workload names
   them). *)
module RM1_none = (val Registry.rm Exp2 (Registry.find "none"))
module RM2_ebr = (val Registry.rm Exp2 (Registry.find "ebr"))
module RM2_qsbr = (val Registry.rm Exp2 (Registry.find "qsbr"))
module RM2_debra = (val Registry.rm Exp2 (Registry.find "debra"))
module RM2_debra_plus = (val Registry.rm Exp2 (Registry.find "debra+"))
module RM2_hp = (val Registry.rm Exp2 (Registry.find "hp"))
module RM2_rc = (val Registry.rm Exp2 (Registry.find "rc"))
module RM2_ts = (val Registry.rm Exp2 (Registry.find "threadscan"))
module RM2_st = (val Registry.rm Exp2 (Registry.find "stacktrack"))
module RM2_vbr = (val Registry.rm Exp2 (Registry.find "vbr"))
module RM2_hyaline = (val Registry.rm Exp2 (Registry.find "hyaline"))

(* One trial runner per Record Manager, for any set structure: the
   structures differ only in their face, and the lazy skip list keeps up
   to ~2*max_level preds/succs protected per traversal. *)
module Runner (RM : Intf.RECORD_MANAGER) = struct
  module R = Trial.Run (RM)

  let run ~ds =
    let face, hp_slots =
      match ds with
      | "bst" -> (R.Face.bst, None)
      | "list" -> (R.Face.hm_list, None)
      | "skiplist" -> (R.Face.skiplist, Some ((2 * Ds.Skiplist.max_level) + 8))
      | ds -> invalid_arg ("Schemes: no trial runner for structure " ^ ds)
    in
    fun cfg ->
      let params =
        match hp_slots with
        | None -> cfg.params
        | Some k -> { cfg.params with Intf.Params.hp_slots = k }
      in
      R.trial face ~machine:cfg.machine ~params ~duration:cfg.duration
        ~capacity:cfg.capacity ~sanitize:cfg.sanitize ?telemetry:cfg.telemetry
        ?history:cfg.history ?stall:cfg.stall ?chaos:cfg.chaos
        ~budget:cfg.budget ?max_steps:cfg.max_steps ~exec:(exec_of cfg)
        ~n:cfg.n ~range:cfg.range ~ins:cfg.ins ~del:cfg.del ~seed:cfg.seed ()
end

let trial =
  Registry.memo (fun variant e ->
      let module RM = (val Registry.rm variant e) in
      let module R = Runner (RM) in
      R.run)

(** The runner of scheme [name] on structure [ds] under [variant]'s
    pairing (default [Exp2]). *)
let runner ?(variant = Registry.Exp2) ~ds name =
  { rname = name; run = trial variant (Registry.find name) ~ds }

(* Each panel's columns, in order.  Experiments 1-3 (Figs. 8 and 10)
   compare none, DEBRA, DEBRA+ and HP on the BST; the skip list is
   lock-based, so DEBRA+ sits out there and StackTrack and ThreadScan join,
   as in the paper. *)
let paper_bst = [ "none"; "debra"; "debra+"; "hp" ]
let paper_skiplist = [ "none"; "debra"; "hp"; "stacktrack"; "threadscan" ]
let zoo = [ "none"; "ebr"; "qsbr"; "debra"; "debra+"; "hp"; "rc"; "vbr"; "hyaline" ]

let panels =
  [
    (("bst", "exp1"), (Registry.Exp1, paper_bst));
    (("bst", "zoo"), (Registry.Exp2, zoo));
    (("bst", "exp2"), (Registry.Exp2, paper_bst));
    (("bst", "exp3"), (Registry.Exp3, paper_bst));
    (("skiplist", "exp1"), (Registry.Exp1, paper_skiplist));
    (("skiplist", "exp2"), (Registry.Exp2, paper_skiplist));
    (("skiplist", "exp3"), (Registry.Exp3, [ "none"; "debra"; "hp" ]));
    ( ("list", "exp2"),
      (Registry.Exp2, List.filter (fun s -> s <> "qsbr" && s <> "rc") zoo) );
  ]

(** The runners of panel [variant] ("exp1", "exp2", "exp3", "zoo") on
    structure [ds]; [] for a combination no panel defines. *)
let panel ~ds variant =
  match List.assoc_opt (ds, variant) panels with
  | None -> []
  | Some (v, names) -> List.map (runner ~variant:v ~ds) names

(* Panel driver: one table per (structure, range, mix); schemes as columns,
   process counts as rows; cells in Mops/s with % overhead vs the first
   (baseline) column. *)
let run_panel ?(on_outcome = fun (_ : runner) (_ : Trial.outcome) -> ())
    ~title ~runners
    ~threads ~cfg_of () =
  let header =
    "procs"
    :: List.concat_map
         (fun r ->
           if r.rname = "none" then [ r.rname ] else [ r.rname; "vs none" ])
         runners
  in
  let series = List.map (fun r -> (r.rname, ref [])) runners in
  let backend = ref "sim" in
  let wall = ref 0. in
  let rows =
    List.map
      (fun n ->
        let outcomes =
          List.map
            (fun r ->
              let o = r.run (cfg_of n) in
              backend := o.Trial.backend;
              wall := !wall +. o.Trial.wall_seconds;
              on_outcome r o;
              (r, o))
            runners
        in
        let base =
          match outcomes with (_, o) :: _ -> o.Trial.mops | [] -> 0.
        in
        string_of_int n
        :: List.concat_map
             (fun ((r : runner), (o : Trial.outcome)) ->
               let pts = List.assoc r.rname series in
               pts := (n, o.Trial.mops) :: !pts;
               let cell =
                 if o.Trial.oom then "OOM" else Report.fmt_mops o.Trial.mops
               in
               let cell =
                 match o.Trial.violations with
                 | Some v when v > 0 -> cell ^ "!SAN"
                 | _ -> cell
               in
               if r.rname = "none" then [ cell ]
               else [ cell; Report.fmt_pct (Report.rel ~base o.Trial.mops) ])
             outcomes)
      threads
  in
  Report.table ~title ~header ~rows;
  Printf.printf "  backend: %s, wall-clock %.2f s\n" !backend !wall;
  Report.chart ~title:(title ^ " — figure")
    ~series:(List.map (fun (name, pts) -> (name, List.rev !pts)) series)
    ()

let mix_name ins del =
  if ins + del = 100 then Printf.sprintf "%di-%dd" ins del
  else Printf.sprintf "%di-%dd-%ds" ins del (100 - ins - del)

let find_runner ~ds ~variant ~scheme =
  match List.assoc_opt (ds, variant) panels with
  | Some (v, names) when List.mem scheme names ->
      Some (runner ~variant:v ~ds scheme)
  | _ -> None
