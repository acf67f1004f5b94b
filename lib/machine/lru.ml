(* A doubly-linked recency list over flat slot arrays, indexed by an
   open-addressing [Line_index]: O(1) touch, remove and eviction with no
   allocation once the arrays have grown.  Slot [s] holds [line.(s)], its
   more recent neighbour [prev.(s)] and less recent one [next.(s)] ([-1]
   at the ends).  Freed slots are threaded through [next]. *)

type t = {
  cap : int;
  on_evict : int -> unit;
  index : Line_index.t;
  mutable line : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable head : int;  (* most recently used slot *)
  mutable tail : int;  (* least recently used slot *)
  mutable size : int;
  mutable used : int;  (* slots [0, used) have been handed out *)
  mutable free : int;  (* head of the free-slot list *)
}

(* Arrays start at one slot and double up to [cap] as lines arrive, so a
   large cache that sees few lines stays small. *)
let create ~cap ~on_evict =
  assert (cap > 0);
  {
    cap;
    on_evict;
    index = Line_index.create ~slots:1;
    line = [| 0 |];
    prev = [| -1 |];
    next = [| -1 |];
    head = -1;
    tail = -1;
    size = 0;
    used = 0;
    free = -1;
  }

let mem t line = Line_index.find t.index t.line line >= 0
let size t = t.size

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p < 0 then t.head <- n else t.next.(p) <- n;
  if n < 0 then t.tail <- p else t.prev.(n) <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head < 0 then t.tail <- s else t.prev.(t.head) <- s;
  t.head <- s

let release t s =
  t.next.(s) <- t.free;
  t.free <- s;
  t.size <- t.size - 1

let grow t =
  let n = min t.cap (2 * Array.length t.line) in
  let extend a =
    let a' = Array.make n (-1) in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  in
  t.line <- extend t.line;
  t.prev <- extend t.prev;
  t.next <- extend t.next;
  Line_index.grow t.index t.line ~slots:n

let fresh_slot t =
  if t.free >= 0 then begin
    let s = t.free in
    t.free <- t.next.(s);
    s
  end
  else begin
    if t.used = Array.length t.line then grow t;
    let s = t.used in
    t.used <- s + 1;
    s
  end

let refresh t line =
  let s = Line_index.find t.index t.line line in
  if s < 0 then false
  else begin
    if s <> t.head then begin
      unlink t s;
      push_front t s
    end;
    true
  end

let add t line =
  if t.size >= t.cap then begin
    let s = t.tail in
    let victim = t.line.(s) in
    unlink t s;
    ignore (Line_index.remove t.index t.line victim);
    release t s;
    t.on_evict victim
  end;
  let s = fresh_slot t in
  t.line.(s) <- line;
  Line_index.add t.index line s;
  push_front t s;
  t.size <- t.size + 1

let touch t line = if not (refresh t line) then add t line

let remove t line =
  let s = Line_index.remove t.index t.line line in
  if s >= 0 then begin
    unlink t s;
    release t s
  end

let clear t =
  Line_index.clear t.index;
  t.head <- -1;
  t.tail <- -1;
  t.size <- 0;
  t.used <- 0;
  t.free <- -1
