type node = Nil | Cons of int * node
type t = { head : node Runtime.Svar.t }

let create () = { head = Runtime.Svar.make Nil }

let rec push ctx t x =
  let old = Runtime.Svar.get ctx t.head in
  if not (Runtime.Svar.cas ctx t.head ~expect:old (Cons (x, old))) then
    push ctx t x

let rec pop ctx t =
  match Runtime.Svar.get ctx t.head with
  | Nil -> None
  | Cons (x, rest) as old ->
      if Runtime.Svar.cas ctx t.head ~expect:old rest then Some x
      else pop ctx t

(* Top level, not a local [go]: a closure over [ctx t f] would cost words
   on every drain, and EBR drains once per epoch advance. *)
let rec drain_from ctx t f n =
  match pop ctx t with
  | None -> n
  | Some x ->
      f ctx x;
      drain_from ctx t f (n + 1)

let drain ctx t f = drain_from ctx t f 0

let size t =
  let rec go n acc = match n with Nil -> acc | Cons (_, r) -> go r (acc + 1) in
  go (Runtime.Svar.peek t.head) 0
