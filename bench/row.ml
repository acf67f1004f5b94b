(** The one shape of every [--json] bench artefact (BENCH_<experiment>.json):

    {v
    {"experiment": name,
     "key": [field, ...],
     "metrics": {metric: {"unit": u, "better": "higher" | "lower" | null,
                          "exact": bool}, ...},
     "results": [row, ...]}
    v}

    A campaign declares its {!table} once: the identity fields that key a
    row, and every metric a row may carry with its unit, its direction
    ([better]; absent = informational, never gated) and whether it is
    deterministic ([exact]: virtual-time values are, wall-clock ones are
    not).  Every row carries every key field ([null] where one does not
    apply), and every other scalar in a row is a declared metric, so
    tools/bench_gate.py needs nothing but the file to gate it. *)

module J = Telemetry.Json

type metric = {
  unit : string;
  better : [ `Higher | `Lower ] option;
  exact : bool;
}

type table = { key : string list; metrics : (string * metric) list }

let metric ?better ?(exact = true) unit = { unit; better; exact }

(* Set by bench/main.ml's --json flag; main drains the rows of each
   experiment with [write]. *)
let enabled = ref false
let current : table option ref = ref None
let rows : J.t list ref = ref []

let add t fields =
  if !enabled then begin
    (match !current with
    | Some t' when t' <> t -> invalid_arg "Row.add: one artefact, one table"
    | _ -> current := Some t);
    List.iter
      (function
        | _, (J.Obj _ | J.List _) -> ()
        | name, _ ->
            if not (List.mem name t.key || List.mem_assoc name t.metrics)
            then invalid_arg ("Row.add: undeclared field " ^ name))
      fields;
    let key =
      List.map
        (fun k -> (k, Option.value ~default:J.Null (List.assoc_opt k fields)))
        t.key
    in
    let rest = List.filter (fun (k, _) -> not (List.mem k t.key)) fields in
    rows := J.Obj (key @ rest) :: !rows
  end

(* Drop the rows added since the last [write] or [clear]. *)
let clear () =
  current := None;
  rows := []

let write ~experiment file =
  let t = Option.value ~default:{ key = []; metrics = [] } !current in
  let better = function
    | Some `Higher -> J.String "higher"
    | Some `Lower -> J.String "lower"
    | None -> J.Null
  in
  J.to_file file
    (J.Obj
       [
         ("experiment", J.String experiment);
         ("key", J.List (List.map (fun k -> J.String k) t.key));
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, m) ->
                  ( name,
                    J.Obj
                      [
                        ("unit", J.String m.unit);
                        ("better", better m.better);
                        ("exact", J.Bool m.exact);
                      ] ))
                t.metrics) );
         ("results", J.List (List.rev !rows));
       ]);
  clear ()
