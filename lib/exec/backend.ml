(** Backend selection for command-line drivers: the [--backend sim|domains]
    flag parses to a {!t}, and {!runner} resolves it (plus the simulator's
    per-trial knobs) into a packed {!Intf.RUNNER}. *)

type t = [ `Sim | `Domains ]

let all : t list = [ `Sim; `Domains ]
let to_string = function `Sim -> "sim" | `Domains -> "domains"

let of_string = function
  | "sim" -> Ok `Sim
  | "domains" -> Ok `Domains
  | s ->
      Error
        (Printf.sprintf "unknown backend %S (expected %s)" s
           (String.concat "|" (List.map to_string all)))

let clock = function `Sim -> Clock.sim | `Domains -> Clock.wall

(** [runner ?machine ?max_steps t] packs the backend.  The two options
    parameterize the simulator and are ignored (with no effect, not an
    error) by the domains backend, which has no machine model. *)
let runner ?machine ?max_steps : t -> (module Intf.RUNNER) = function
  | `Sim -> Sim_exec.make ?machine ?max_steps ()
  | `Domains -> Domain_exec.make ()
