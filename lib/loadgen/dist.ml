(** Key-popularity distributions for the load generator.

    [Zipfian theta] is the YCSB-style skew: key rank [r] (0-based) is
    drawn with probability proportional to [1 / (r+1)^theta].  The
    sampler precomputes the cumulative mass once and binary-searches it
    per draw, so sampling is O(log n) and allocation-free. *)

type t = Uniform | Zipfian of float

let to_string = function
  | Uniform -> "uniform"
  | Zipfian theta -> Printf.sprintf "zipfian:%.2f" theta

(* [sampler t ~nkeys] returns a rank sampler in [0, nkeys). *)
let sampler t ~nkeys =
  if nkeys < 1 then invalid_arg "Dist.sampler: nkeys must be >= 1";
  match t with
  | Uniform -> fun rng -> Random.State.int rng nkeys
  | Zipfian theta ->
      let cdf = Array.make nkeys 0.0 in
      let acc = ref 0.0 in
      for r = 0 to nkeys - 1 do
        acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) theta);
        cdf.(r) <- !acc
      done;
      let total = !acc in
      fun rng ->
        let u = Random.State.float rng total in
        (* First rank whose cumulative mass exceeds [u]. *)
        let lo = ref 0 and hi = ref (nkeys - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cdf.(mid) < u then lo := mid + 1 else hi := mid
        done;
        !lo
