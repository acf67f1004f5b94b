type t = { cells : int Atomic.t array; base_line : int; padded : bool }

(* Real padding on the host heap, to match the simulated padding: an
   [Atomic.t] is a one-field heap block, and the atomic primitives act on
   field 0 regardless of the block's size, so allocating each cell as an
   oversized block keeps neighbouring cells on distinct hardware cache
   lines (the multicore-magic [copy_as_padded] idiom).  Under the domains
   backend this removes the very false sharing the [padded] flag models;
   under the simulator it is inert.  16 words = 128 bytes, one line pair
   on common prefetching hardware. *)
let pad_words = 16

let atomic_padded v : int Atomic.t =
  let b = Obj.new_block 0 pad_words in
  Obj.set_field b 0 (Obj.repr (v : int));
  (Obj.obj b : int Atomic.t)

let create ?(padded = false) n =
  let base_line =
    if padded then Addr.reserve_lines n else Addr.reserve_words n
  in
  let cell _ = if padded then atomic_padded 0 else Atomic.make 0 in
  { cells = Array.init n cell; base_line; padded }

(* [padded] stays [false]: it selects the simulated layout, which here is
   the packed one of [create k]; only the host cells are padded. *)
let rows n k =
  Array.init n (fun _ ->
      let base_line = Addr.reserve_words k in
      let cells = Array.init k (fun _ -> atomic_padded 0) in
      { cells; base_line; padded = false })

let length t = Array.length t.cells

let line t i =
  if t.padded then t.base_line + i else Addr.line_of ~base_line:t.base_line i

let get ctx t i =
  Ctx.access ctx ~line:(line t i) Ctx.Read;
  Atomic.get t.cells.(i)

let set ctx t i v =
  Ctx.access ctx ~line:(line t i) Ctx.Write;
  Atomic.set t.cells.(i) v

let cas ctx t i ~expect v =
  Ctx.access ctx ~line:(line t i) Ctx.Cas;
  Atomic.compare_and_set t.cells.(i) expect v

let faa ctx t i d =
  Ctx.access ctx ~line:(line t i) Ctx.Cas;
  Atomic.fetch_and_add t.cells.(i) d

let peek t i = Atomic.get t.cells.(i)
let poke t i v = Atomic.set t.cells.(i) v
