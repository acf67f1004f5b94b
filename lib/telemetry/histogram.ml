type t = {
  sub_bits : int;
  mutable counts : int array;  (* grows on demand, bucket-indexed *)
  mutable count : int;
  mutable min_v : int;
  mutable max_v : int;
  mutable total : float;  (* of quantized values; float avoids overflow *)
}

let create ?(sub_bits = 5) () =
  if sub_bits < 1 || sub_bits > 16 then
    invalid_arg "Histogram.create: sub_bits must be in 1..16";
  {
    sub_bits;
    counts = Array.make (4 lsl sub_bits) 0;
    count = 0;
    min_v = max_int;
    max_v = 0;
    total = 0.0;
  }

let floor_log2 v =
  (* v >= 1 *)
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

(* Bucket layout: values < 2^sub_bits map to themselves (one exact bucket
   each); a value v >= 2^sub_bits with m = floor_log2 v sits in the
   power-of-two range [2^m, 2^(m+1)), which contributes 2^sub_bits
   sub-buckets selected by the sub_bits bits below the leading one. *)
let index t v =
  let b = t.sub_bits in
  if v < 1 lsl b then v
  else
    let m = floor_log2 v in
    let shift = m - b in
    (* ranges below 2^b contributed exactly 2^b buckets total *)
    ((shift + 1) lsl b) + ((v lsr shift) - (1 lsl b))

(* Smallest value mapping to bucket [i], and the bucket's width. *)
let bucket_base t i =
  let b = t.sub_bits in
  if i < 1 lsl b then (i, 1)
  else
    let shift = (i lsr b) - 1 in
    let sub = (i land ((1 lsl b) - 1)) + (1 lsl b) in
    (sub lsl shift, 1 lsl shift)

let value_at t i =
  let base, width = bucket_base t i in
  base + ((width - 1) / 2)

let ensure t i =
  if i >= Array.length t.counts then begin
    let n = ref (Array.length t.counts) in
    while i >= !n do
      n := !n * 2
    done;
    let counts = Array.make !n 0 in
    Array.blit t.counts 0 counts 0 (Array.length t.counts);
    t.counts <- counts
  end

let record t v =
  let v = if v < 0 then 0 else v in
  let i = index t v in
  ensure t i;
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  t.total <- t.total +. float_of_int (value_at t i)

let count t = t.count
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = t.max_v
let total t = int_of_float t.total
let mean t = if t.count = 0 then 0.0 else t.total /. float_of_int t.count

let quantile t q =
  if t.count = 0 then 0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let target =
      let x = int_of_float (ceil (q *. float_of_int t.count)) in
      if x < 1 then 1 else x
    in
    let acc = ref 0 in
    let result = ref t.max_v in
    (try
       Array.iteri
         (fun i c ->
           if c > 0 then begin
             acc := !acc + c;
             if !acc >= target then begin
               result := value_at t i;
               raise Exit
             end
           end)
         t.counts
     with Exit -> ());
    !result
  end

let percentiles t =
  List.map (fun p -> (p, quantile t (p /. 100.0))) [ 50.0; 90.0; 99.0; 99.9 ]

let percentile_key p =
  if Float.is_integer p then Printf.sprintf "p%.0f" p
  else "p" ^ String.concat "" (String.split_on_char '.' (Printf.sprintf "%.1f" p))

let merge_into src ~into =
  if src.sub_bits <> into.sub_bits then
    invalid_arg "Histogram.merge_into: sub_bits mismatch";
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        ensure into i;
        into.counts.(i) <- into.counts.(i) + c;
        into.count <- into.count + c;
        into.total <- into.total +. (float_of_int c *. float_of_int (value_at into i))
      end)
    src.counts;
  if src.count > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
  end

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.count <- 0;
  t.min_v <- max_int;
  t.max_v <- 0;
  t.total <- 0.0
