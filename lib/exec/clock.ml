(** The single source of truth for time scales.

    Every execution backend reports elapsed time as an integer number of
    {e cycles}, but what a cycle means differs per backend:

    - the deterministic simulator prices accesses on a modelled ~3 GHz
      part (the paper's i7-4770 testbed), so one virtual cycle is 1/3 ns
      and [sim.cycles_per_second = 3.0e9];
    - the real-parallelism domains backend scales wall-clock time so that
      one cycle is exactly 1 ns ([wall.cycles_per_second = 1.0e9]).

    Before this module existed the two constants lived in
    [Workload.Trial] and [Runtime.Domain_runner] respectively, with
    drifting comments; every conversion (Mops/s, simulated-ns latency,
    trace microseconds, sampling periods) now goes through a [Clock.t] so
    a backend's numbers are always internally consistent. *)

type t = {
  name : string;
  cycles_per_second : float;  (** cycle frequency of this time base *)
}

let sim = { name = "sim"; cycles_per_second = 3.0e9 }
let wall = { name = "wall"; cycles_per_second = 1.0e9 }

let cycles_per_ns t = t.cycles_per_second /. 1.0e9
let cycles_per_us t = t.cycles_per_second /. 1.0e6
let seconds_of_cycles t c = float_of_int c /. t.cycles_per_second
let ns_of_cycles t c = float_of_int c /. cycles_per_ns t
let cycles_of_seconds t s = int_of_float (s *. t.cycles_per_second)

(** Durations named in wall units convert to whole cycles of this time
    base (at least 1 cycle for any positive duration, so a tiny budget
    still means something on a coarse clock). *)
let cycles_of_ns t ns =
  if ns <= 0 then 0 else max 1 (int_of_float (float_of_int ns *. cycles_per_ns t))

let cycles_of_us t us = cycles_of_ns t (us * 1_000)
let cycles_of_ms t ms = cycles_of_ns t (ms * 1_000_000)

(** [mops t ~ops ~cycles] is throughput in million operations per second
    of this clock's time base ([ops = 0] or [cycles = 0] reports 0). *)
let mops t ~ops ~cycles =
  if cycles = 0 then 0.
  else float_of_int ops /. seconds_of_cycles t cycles /. 1.0e6
