(* Spare blocks a pool keeps; more are dropped. *)
let bound = 16

type t = {
  block_capacity : int;
  mutable spare : Block.t;  (* chain of spare blocks *)
  mutable nspare : int;
  mutable allocated : int;
  mutable recycled : int;
}

let create ~block_capacity () =
  { block_capacity; spare = Block.nil; nspare = 0; allocated = 0; recycled = 0 }

let get t =
  if Block.is_nil t.spare then begin
    t.allocated <- t.allocated + 1;
    Block.create t.block_capacity
  end
  else begin
    let b = t.spare in
    t.spare <- b.Block.next;
    t.nspare <- t.nspare - 1;
    t.recycled <- t.recycled + 1;
    b.Block.next <- Block.nil;
    b
  end

let put t b =
  if t.nspare < bound then begin
    b.Block.count <- 0;
    b.Block.next <- t.spare;
    t.spare <- b;
    t.nspare <- t.nspare + 1
  end

let allocated t = t.allocated
let recycled t = t.recycled
