(** Open-loop load generation: a deterministic request plan plus the
    worker bodies that serve it.

    {b Plan.}  [generate] materializes the whole run up front — one
    arrival time ({!Arrivals.schedule}) and one operation per request,
    both pure functions of the seed.  Operations name keys by {e rank}
    (an index in [0, nkeys), rank 0 hottest under Zipfian); the driver
    maps ranks to real keys in its [exec_op] closure, so the generator
    stays ignorant of the store's key syntax.

    {b Dispatch.}  Workers share one {!Runtime.Svar} request counter and
    claim requests with fetch-and-add: the next free worker serves the
    next request, a MPMC work queue with the queue itself implicit in the
    (precomputed) plan.  A worker that claims a request before its
    arrival time stalls until it is due; one that claims it late serves
    it immediately — and the recorded latency runs from the {e scheduled}
    arrival to completion, so queueing delay accumulated while all
    workers were busy is charged to the request.  This is the open-loop
    discipline: the {e client} never sheds — every request is claimed and
    accounted — but the {e server} may: [exec_op] returns an {!outcome},
    so a request the service sheds or fails is recorded as that outcome
    rather than silently vanishing from the histograms, and SLO/goodput
    accounting can charge it against demand
    ({!Telemetry.Slo.judge_demand}). *)

module Dist = Dist
module Arrivals = Arrivals

type op =
  | Get of int
  | Put of int
  | Delete of int
  | Scan of int * int  (** start rank, length *)

type mix = { get : int; put : int; delete : int; scan : int }

let check_mix m =
  if m.get < 0 || m.put < 0 || m.delete < 0 || m.scan < 0
     || m.get + m.put + m.delete + m.scan <> 100
  then invalid_arg "Loadgen: mix percentages must be >= 0 and sum to 100"

let mix_of_string = function
  | "read_heavy" -> Some { get = 90; put = 8; delete = 2; scan = 0 }
  | "session" -> Some { get = 70; put = 20; delete = 10; scan = 0 }
  | "write_heavy" -> Some { get = 40; put = 45; delete = 15; scan = 0 }
  | "scan_heavy" -> Some { get = 40; put = 20; delete = 5; scan = 35 }
  | _ -> None

let mix_to_string m =
  Printf.sprintf "get=%d,put=%d,delete=%d,scan=%d" m.get m.put m.delete m.scan

let op_kind = function
  | Get _ -> "get"
  | Put _ -> "put"
  | Delete _ -> "delete"
  | Scan _ -> "scan"

(* Server-side fate of one request.  [Served] is the only outcome whose
   latency belongs in the SLO histograms; everything else is a distinct
   form of non-service that goodput accounting must count against demand. *)
type outcome =
  | Served  (** completed *)
  | Shed  (** dropped by brownout admission control before service *)
  | Failed  (** service raised an allocation failure *)

let outcome_name = function
  | Served -> "served"
  | Shed -> "shed"
  | Failed -> "failed"

let outcomes = [ Served; Shed; Failed ]

let scan_length = 16

type plan = {
  arrivals : int array;  (** absolute due times, backend cycles *)
  ops : op array;
  nkeys : int;
}

let generate ~n ~nkeys ~dist ~mix ~arrivals ~clock ~seed =
  check_mix mix;
  if n < 1 then invalid_arg "Loadgen.generate: n must be >= 1";
  let sample = Dist.sampler dist ~nkeys in
  let rng = Random.State.make [| seed; 0x10ad |] in
  (* Scans walk the rank space sequentially so each one touches a fresh
     window instead of rescanning the hot head. *)
  let cursor = ref 0 in
  let ops =
    Array.init n (fun _ ->
        let r = Random.State.int rng 100 in
        if r < mix.get then Get (sample rng)
        else if r < mix.get + mix.put then Put (sample rng)
        else if r < mix.get + mix.put + mix.delete then Delete (sample rng)
        else begin
          let start = !cursor in
          cursor := (!cursor + scan_length) mod nkeys;
          Scan (start, scan_length)
        end)
  in
  { arrivals = Arrivals.schedule arrivals ~clock ~n ~seed; ops; nkeys }

let length plan = Array.length plan.arrivals

(* [bodies plan ~group ~record ~exec_op] builds one worker body per
   process in [group].  [exec_op ctx ~due op] serves a request (or sheds
   it — its business) and returns the shard it was routed to plus its
   outcome; [record] is called once per request with the scheduled
   arrival as [start]. *)
let bodies plan ~group ~record ~exec_op =
  let n = length plan in
  let next = Runtime.Svar.make 0 in
  Array.map
    (fun ctx ->
      fun () ->
        let continue_ = ref true in
        while !continue_ do
          let i = Runtime.Svar.faa ctx next 1 in
          if i >= n then continue_ := false
          else begin
            let due = plan.arrivals.(i) in
            let now = Runtime.Ctx.now ctx in
            if now < due then Runtime.Ctx.stall ctx (due - now);
            let op = plan.ops.(i) in
            let shard, outcome = exec_op ctx ~due op in
            record ~pid:ctx.Runtime.Ctx.pid ~op ~shard ~outcome ~start:due
              ~finish:(Runtime.Ctx.now ctx)
          end
        done)
    group.Runtime.Group.ctxs
