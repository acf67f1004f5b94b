type route = [ `Deliver | `Drop ]

type t = {
  ctxs : Ctx.t array;
  seed : int;
  crashed : bool array;
  mutable signals_unreliable : bool;
  mutable signal_route : from:Ctx.t -> target:int -> route;
}

let create ?(seed = 42) n =
  assert (n > 0);
  {
    ctxs = Array.init n (fun pid -> Ctx.make ~pid ~nprocs:n ~seed);
    seed;
    crashed = Array.make n false;
    signals_unreliable = false;
    signal_route = (fun ~from:_ ~target:_ -> `Deliver);
  }

let nprocs t = Array.length t.ctxs
let ctx t pid = t.ctxs.(pid)
let mark_crashed t pid = t.crashed.(pid) <- true
let is_crashed t pid = t.crashed.(pid)
let any_crashed t = Array.exists (fun c -> c) t.crashed

let set_signal_route t route = t.signal_route <- route

let reset_signal_route t =
  t.signal_route <- (fun ~from:_ ~target:_ -> `Deliver);
  t.signals_unreliable <- false

let send_signal t ~from ~target =
  let open Ctx in
  if t.crashed.(target) then
    (* pthread_kill to a dead thread: ESRCH.  The sender learns the target
       is gone and must treat it as permanently stopped. *)
    false
  else begin
    from.stats.signals_sent <- from.stats.signals_sent + 1;
    (match t.signal_route ~from ~target with
    | `Deliver -> Atomic.set t.ctxs.(target).sig_pending true
    | `Drop ->
        (* Lost in flight: the sender still sees success, exactly the
           asymmetry a fault-injection campaign needs.  A delayed delivery
           is modelled by the router returning [`Drop] here and setting the
           target's flag later (see lib/chaos). *)
        ());
    true
  end

let sum_stats t f = Array.fold_left (fun acc c -> acc + f c.Ctx.stats) 0 t.ctxs

let subscribe t s = Array.iter (fun c -> Ctx.subscribe c s) t.ctxs
let unsubscribe t s = Array.iter (fun c -> Ctx.unsubscribe c s) t.ctxs
