(** The full protocheck matrix: 4 structures x every registered scheme,
    under the registry's [Check] pairing (the one the sanitizer fuzz uses). *)

open Reclaim

let structures = [ Report.List; Report.Bst; Report.Queue; Report.Skiplist ]

(** The cell checker of scheme [e], instantiated once per scheme. *)
let cell : Registry.entry -> Report.structure -> Report.cell_result =
  let memo =
    Registry.memo (fun variant e ->
        let module RM = (val Registry.rm variant e) in
        let module C = Cell.Make (RM) in
        C.check)
  in
  memo Registry.Check

let check_structure s = List.map (fun e -> cell e s) Registry.all
let all () = List.concat_map check_structure structures
