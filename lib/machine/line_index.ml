(* Linear probing over a power-of-two bucket array.  A bucket holds
   [slot + 1], or 0 when empty; the key of a bucket is read from the
   owner's key array, so the index itself stores no keys. *)

type t = { mutable buckets : int array; mutable shift : int }

(* Fibonacci hashing: the top bits of the product are well mixed even for
   the strided line ids arenas hand out. *)
let multiplier = 0x278D_DE6E_5FD2_9F05

(* Smallest bucket-count exponent keeping the load factor at most 1/2. *)
let bits_for slots =
  let rec go b = if 1 lsl b >= 2 * slots then b else go (b + 1) in
  go 1

let create ~slots =
  let b = bits_for slots in
  { buckets = Array.make (1 lsl b) 0; shift = Sys.int_size - b }

let home t key = (key * multiplier) lsr t.shift

let rec bucket_from t keys key b =
  let e = t.buckets.(b) in
  if e = 0 then -1
  else if keys.(e - 1) = key then b
  else bucket_from t keys key ((b + 1) land (Array.length t.buckets - 1))

let find t keys key =
  let b = bucket_from t keys key (home t key) in
  if b < 0 then -1 else t.buckets.(b) - 1

let rec add_from buckets b slot =
  if buckets.(b) = 0 then buckets.(b) <- slot + 1
  else add_from buckets ((b + 1) land (Array.length buckets - 1)) slot

let add t key slot = add_from t.buckets (home t key) slot

(* Backward-shift deletion: walk the cluster after the hole and move back
   every entry whose home bucket does not lie cyclically in (hole, j], so
   no probe sequence ever crosses an empty bucket it should not. *)
let rec close_hole t keys hole j =
  let j = (j + 1) land (Array.length t.buckets - 1) in
  let e = t.buckets.(j) in
  if e = 0 then t.buckets.(hole) <- 0
  else
    let h = home t keys.(e - 1) in
    let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
    if stays then close_hole t keys hole j
    else begin
      t.buckets.(hole) <- e;
      close_hole t keys j j
    end

let remove t keys key =
  let b = bucket_from t keys key (home t key) in
  if b < 0 then -1
  else begin
    let slot = t.buckets.(b) - 1 in
    close_hole t keys b b;
    slot
  end

let clear t = Array.fill t.buckets 0 (Array.length t.buckets) 0

let grow t keys ~slots =
  let b = bits_for slots in
  let old = t.buckets in
  if 1 lsl b > Array.length old then begin
    t.buckets <- Array.make (1 lsl b) 0;
    t.shift <- Sys.int_size - b;
    Array.iter
      (fun e -> if e <> 0 then add_from t.buckets (home t keys.(e - 1)) (e - 1))
      old
  end
