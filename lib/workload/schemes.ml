(** The experiment matrix: a uniform trial runner per (pairing variant,
    scheme, structure) and each panel's scheme columns.
    Record Managers come from {!Reclaim.Registry}; the variants follow the
    paper's experiments ([Exp1]: bump allocator, no pool; [Exp2]: bump
    allocator behind the shared pool; [Exp3]: malloc-style allocator behind
    the shared pool). *)

open Reclaim

type runner = { rname : string; run : Trial.cfg -> Trial.outcome }

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
    fun (cfg : Trial.cfg) ->
      match hp_slots with
      | None -> R.trial face cfg
      | Some k ->
          R.trial face
            { cfg with params = { cfg.params with Intf.Params.hp_slots = k } }
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

let mix_name ins del =
  if ins + del = 100 then Printf.sprintf "%di-%dd" ins del
  else Printf.sprintf "%di-%dd-%ds" ins del (100 - ins - del)

let find_runner ~ds ~variant ~scheme =
  match List.assoc_opt (ds, variant) panels with
  | Some (v, names) when List.mem scheme names ->
      Some (runner ~variant:v ~ds scheme)
  | _ -> None
