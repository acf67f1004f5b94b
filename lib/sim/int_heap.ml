(* Binary min-heap over two parallel int arrays, grown by doubling. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable size : int;
}

let create () = { keys = [||]; vals = [||]; size = 0 }
let is_empty h = h.size = 0

let min_key h =
  if h.size = 0 then invalid_arg "Int_heap.min_key: empty";
  h.keys.(0)

let min_value h =
  if h.size = 0 then invalid_arg "Int_heap.min_value: empty";
  h.vals.(0)

let less h i j =
  let ki = h.keys.(i) and kj = h.keys.(j) in
  ki < kj || (ki = kj && h.vals.(i) < h.vals.(j))

let swap h i j =
  let k = h.keys.(i) and v = h.vals.(i) in
  h.keys.(i) <- h.keys.(j);
  h.vals.(i) <- h.vals.(j);
  h.keys.(j) <- k;
  h.vals.(j) <- v

let rec sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if less h i p then begin
      swap h i p;
      sift_up h p
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 in
  if l < h.size then begin
    let r = l + 1 in
    let m = if r < h.size && less h r l then r else l in
    if less h m i then begin
      swap h m i;
      sift_down h m
    end
  end

let push h k v =
  if h.size = Array.length h.keys then begin
    let n = max 4 (2 * h.size) in
    let extend a =
      let a' = Array.make n 0 in
      Array.blit a 0 a' 0 h.size;
      a'
    in
    h.keys <- extend h.keys;
    h.vals <- extend h.vals
  end;
  h.keys.(h.size) <- k;
  h.vals.(h.size) <- v;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let pop_min h =
  if h.size = 0 then invalid_arg "Int_heap.pop_min: empty";
  h.size <- h.size - 1;
  h.keys.(0) <- h.keys.(h.size);
  h.vals.(0) <- h.vals.(h.size);
  sift_down h 0
