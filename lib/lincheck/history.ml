(** Concurrent operation histories: the recorder half of the linearizability
    checker.

    A history is the sequence of invocation/response events one execution
    produced.  The recorder taps the operation seams (the trial runner's op
    loop, or a purpose-built exploration body) and logs each event with two
    clocks: a {e global sequence number} — an atomic counter bumped at the
    moment the event is recorded, which is the real-time precedence order
    the checker uses — and the backend's virtual timestamp, kept for human
    display only (under [`Random_walk]/[`Systematic] scheduling per-core
    virtual clocks are not globally ordered, so they cannot serve as the
    precedence order).

    The sequence numbers are sound on both backends: an operation's
    invocation is recorded before its first shared access and its response
    after its last, so [ret_seq a < inv_seq b] implies operation [a] really
    completed before [b] began. *)

type op =
  | Add of int  (** set insert; result {!RBool} *)
  | Remove of int  (** set delete; result {!RBool} *)
  | Mem of int  (** set contains; result {!RBool} *)
  | Push of int  (** stack push; result {!RUnit} *)
  | Pop  (** stack pop; result {!RVal} *)
  | Enq of int  (** queue enqueue; result {!RUnit} *)
  | Deq  (** queue dequeue; result {!RVal} *)

type res = RBool of bool | RVal of int option | RUnit

type entry = {
  e_pid : int;
  e_op : op;
  e_res : res option;  (** [None] = pending: no response was recorded *)
  e_inv : int;  (** global sequence number of the invocation *)
  e_ret : int;  (** global sequence number of the response; [max_int] pending *)
  e_inv_time : int;  (** virtual timestamp at invocation (display only) *)
  e_ret_time : int;  (** virtual timestamp at response (display only) *)
}

type t = entry array
(** sorted by [e_inv] *)

(* ------------------------------------------------------------------ *)
(* Recording *)

type token = { t_pid : int; t_op : op; t_inv : int; t_inv_time : int }

type recorder = {
  seq : int Atomic.t;
  completed : entry list ref array;  (* per-pid, newest first *)
  open_op : token option array;  (* at most one op in flight per pid *)
}

let recorder ~nprocs =
  {
    seq = Atomic.make 0;
    completed = Array.init nprocs (fun _ -> ref []);
    open_op = Array.make nprocs None;
  }

let invoke r ~pid ~time op =
  let tok = { t_pid = pid; t_op = op; t_inv = Atomic.fetch_and_add r.seq 1;
              t_inv_time = time }
  in
  r.open_op.(pid) <- Some tok;
  tok

let return_ r tok ~time res =
  let e =
    {
      e_pid = tok.t_pid;
      e_op = tok.t_op;
      e_res = Some res;
      e_inv = tok.t_inv;
      e_ret = Atomic.fetch_and_add r.seq 1;
      e_inv_time = tok.t_inv_time;
      e_ret_time = time;
    }
  in
  r.open_op.(tok.t_pid) <- None;
  let cell = r.completed.(tok.t_pid) in
  cell := e :: !cell

(** The history recorded so far: completed operations plus one pending entry
    per process that died (or was stopped) mid-operation. *)
let snapshot r : t =
  let pending =
    Array.to_list r.open_op
    |> List.filter_map
         (Option.map (fun tok ->
              {
                e_pid = tok.t_pid;
                e_op = tok.t_op;
                e_res = None;
                e_inv = tok.t_inv;
                e_ret = max_int;
                e_inv_time = tok.t_inv_time;
                e_ret_time = max_int;
              }))
  in
  let all =
    Array.fold_left (fun acc cell -> List.rev_append !cell acc) pending
      r.completed
  in
  let a = Array.of_list all in
  Array.sort (fun a b -> compare a.e_inv b.e_inv) a;
  a

let ops (h : t) = Array.length h
let is_pending e = e.e_res = None

(* ------------------------------------------------------------------ *)
(* Display *)

let op_to_string = function
  | Add k -> Printf.sprintf "add(%d)" k
  | Remove k -> Printf.sprintf "remove(%d)" k
  | Mem k -> Printf.sprintf "mem(%d)" k
  | Push v -> Printf.sprintf "push(%d)" v
  | Pop -> "pop()"
  | Enq v -> Printf.sprintf "enq(%d)" v
  | Deq -> "deq()"

let res_to_string = function
  | RBool b -> string_of_bool b
  | RVal None -> "empty"
  | RVal (Some v) -> string_of_int v
  | RUnit -> "()"

let entry_to_string e =
  match e.e_res with
  | Some r ->
      Printf.sprintf "[%3d,%3d] p%d %s -> %s" e.e_inv e.e_ret e.e_pid
        (op_to_string e.e_op) (res_to_string r)
  | None ->
      Printf.sprintf "[%3d,  ∞] p%d %s -> (pending)" e.e_inv e.e_pid
        (op_to_string e.e_op)

let to_string (h : t) =
  String.concat "\n" (Array.to_list (Array.map entry_to_string h))

(* ------------------------------------------------------------------ *)
(* JSON round-trip (golden history corpus) *)

module J = Telemetry.Json

let op_to_json = function
  | Add k -> J.Obj [ ("kind", J.String "add"); ("arg", J.Int k) ]
  | Remove k -> J.Obj [ ("kind", J.String "remove"); ("arg", J.Int k) ]
  | Mem k -> J.Obj [ ("kind", J.String "mem"); ("arg", J.Int k) ]
  | Push v -> J.Obj [ ("kind", J.String "push"); ("arg", J.Int v) ]
  | Pop -> J.Obj [ ("kind", J.String "pop") ]
  | Enq v -> J.Obj [ ("kind", J.String "enq"); ("arg", J.Int v) ]
  | Deq -> J.Obj [ ("kind", J.String "deq") ]

let res_to_json = function
  | RBool b -> J.Obj [ ("kind", J.String "bool"); ("v", J.Bool b) ]
  | RVal None -> J.Obj [ ("kind", J.String "val"); ("v", J.Null) ]
  | RVal (Some v) -> J.Obj [ ("kind", J.String "val"); ("v", J.Int v) ]
  | RUnit -> J.Obj [ ("kind", J.String "unit") ]

let entry_to_json e =
  J.Obj
    ([
       ("pid", J.Int e.e_pid);
       ("op", op_to_json e.e_op);
       ("inv", J.Int e.e_inv);
       ("inv_time", J.Int e.e_inv_time);
     ]
    @
    match e.e_res with
    | None -> []
    | Some r ->
        [ ("res", res_to_json r); ("ret", J.Int e.e_ret);
          ("ret_time", J.Int e.e_ret_time) ])

let to_json (h : t) =
  J.Obj [ ("events", J.List (Array.to_list (Array.map entry_to_json h))) ]

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let get key j =
  match J.member key j with Some v -> v | None -> fail "missing key %S" key

let get_int key j =
  match get key j with J.Int i -> i | _ -> fail "key %S: expected int" key

let op_of_json j =
  let arg () = get_int "arg" j in
  match get "kind" j with
  | J.String "add" -> Add (arg ())
  | J.String "remove" -> Remove (arg ())
  | J.String "mem" -> Mem (arg ())
  | J.String "push" -> Push (arg ())
  | J.String "pop" -> Pop
  | J.String "enq" -> Enq (arg ())
  | J.String "deq" -> Deq
  | _ -> fail "unknown op kind"

let res_of_json j =
  match get "kind" j with
  | J.String "bool" -> (
      match get "v" j with
      | J.Bool b -> RBool b
      | _ -> fail "bool result: expected bool v")
  | J.String "val" -> (
      match get "v" j with
      | J.Null -> RVal None
      | J.Int v -> RVal (Some v)
      | _ -> fail "val result: expected int or null v")
  | J.String "unit" -> RUnit
  | _ -> fail "unknown res kind"

let entry_of_json j =
  let res = Option.map res_of_json (J.member "res" j) in
  {
    e_pid = get_int "pid" j;
    e_op = op_of_json (get "op" j);
    e_res = res;
    e_inv = get_int "inv" j;
    e_ret = (if res = None then max_int else get_int "ret" j);
    e_inv_time = get_int "inv_time" j;
    e_ret_time = (if res = None then max_int else get_int "ret_time" j);
  }

let of_json j : t =
  match get "events" j with
  | J.List evs ->
      let a = Array.of_list (List.map entry_of_json evs) in
      Array.sort (fun a b -> compare a.e_inv b.e_inv) a;
      a
  | _ -> fail "events: expected list"

let save h path = J.to_file ~newline:false path (to_json h)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_json (J.of_string (In_channel.input_all ic)))
