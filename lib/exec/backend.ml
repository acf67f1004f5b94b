(** Backend selection for command-line drivers: the [--backend sim|domains]
    flag parses to a {!t}, and {!runner} resolves it into a packed
    {!Intf.RUNNER}. *)

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

(** [runner t] packs the backend, the simulator with its default machine
    model. *)
let runner : t -> (module Intf.RUNNER) = function
  | `Sim -> Sim_exec.make ()
  | `Domains -> Domain_exec.make ()
