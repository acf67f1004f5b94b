(** The open-loop KV cell shared by the E-kv (kv_bench.ml) and E-overload
    (e_overload.ml) campaigns: one registry scheme's sharded store,
    prefilled over a key universe whose ranks mix the codec's two paths,
    serving a {!Loadgen} plan whose session-key puts carry a TTL of a
    quarter of the schedule span, so hot keys are re-read past their
    deadline and lazy expiry drives retire traffic through the
    unlink-witness path mid-run. *)

(* A scheme's store runs over the registry's Experiment 2 record manager. *)
let rm scheme = Reclaim.Registry.(rm Exp2 (find scheme))

(* Set by bench/main.ml's --schemes flag: a comma-separated subset of a
   campaign's schemes; empty = all. *)
let filter = ref ""

let select ~campaign label items =
  if !filter = "" then items
  else
    let want = String.split_on_char ',' !filter in
    let names = List.map label items in
    match List.filter (fun w -> not (List.mem w names)) want with
    | [] -> List.filter (fun i -> List.mem (label i) want) items
    | missing ->
        Printf.eprintf "%s: unknown scheme(s) %s (expected %s)\n" campaign
          (String.concat "," missing)
          (String.concat "|" names);
        exit 2

(* Even ranks take the codec's short injective path (<= 7 bytes), odd
   ranks the long hashed-session path with read-time verification. *)
let key_of_rank r =
  if r land 1 = 0 then Printf.sprintf "k%06d" r
  else Printf.sprintf "session:%08d" r

let value_of_rank r = Printf.sprintf "v%024d" r

(* The rank whose key routes a request; a scan routes by its first key. *)
let rank = function
  | Loadgen.Get r | Loadgen.Put r | Loadgen.Delete r -> r
  | Loadgen.Scan (start, _) -> start

module Make (RM : Reclaim.Intf.RECORD_MANAGER) = struct
  module S = Kv.Store.Make (RM)
  include S

  type cell = {
    store : S.t;
    plan : Loadgen.plan;
    ctx0 : Runtime.Ctx.t;
    nkeys : int;
    ttl_cycles : int;
  }

  (* Worst-case routing skew puts every key on one shard; capacity is per
     shard, so each is sized for the whole run.  The prefill is
     uninstrumented (backend hooks are not installed yet) and carries no
     TTLs: it cannot date deadlines in the backend's time base. *)
  let setup ?params ~structure ~shards ~nkeys ~requests ~dist ~mix ~arrivals
      ~clock ~seed group =
    let store =
      S.create ~structure ?params ~shards
        ~capacity_per_shard:(nkeys + requests) ~group ()
    in
    let plan =
      Loadgen.generate ~n:requests ~nkeys ~dist ~mix ~arrivals ~clock ~seed
    in
    let ctx0 = Runtime.Group.ctx group 0 in
    for r = 0 to nkeys - 1 do
      S.put store ctx0 ~key:(key_of_rank r) ~value:(value_of_rank r)
    done;
    let ttl_cycles = max 1 (plan.Loadgen.arrivals.(requests - 1) / 4) in
    { store; plan; ctx0; nkeys; ttl_cycles }

  (* One request: its shard, whether it may be shed (scans are the
     low-priority class) and its work against the store. *)
  let request c ctx op =
    let key = key_of_rank (rank op) in
    let work () =
      match op with
      | Loadgen.Get _ -> ignore (S.get c.store ctx key)
      | Loadgen.Put r ->
          let ttl = if r land 1 = 1 then Some c.ttl_cycles else None in
          S.put ?ttl c.store ctx ~key ~value:(value_of_rank r)
      | Loadgen.Delete _ -> ignore (S.delete c.store ctx key)
      | Loadgen.Scan (start, len) ->
          for i = start to start + len - 1 do
            ignore (S.get c.store ctx (key_of_rank (i mod c.nkeys)))
          done
    in
    let sheddable = match op with Loadgen.Scan _ -> true | _ -> false in
    (S.shard_of_key c.store key, sheddable, work)
end
