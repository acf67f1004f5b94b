type access_kind = Read | Write | Cas | Fence | Work of int

exception Neutralized
exception Crashed

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable cass : int;
  mutable fences : int;
  mutable local_work : int;
  mutable allocs : int;
  mutable frees : int;
  mutable retires : int;
  mutable ops : int;
  mutable neutralized : int;
  mutable signals_sent : int;
  mutable signals_ignored : int;
}

type t = {
  pid : int;
  nprocs : int;
  sig_pending : bool Atomic.t;
  mutable sig_mask : int;
  mutable handler : t -> unit;
  probe : probe;
  mutable now_impl : unit -> int;
  mutable stall_impl : int -> unit;
  mutable rng : Random.State.t;
  stats : stats;
}

(* The probe: the subscribers, and per channel the callbacks composed from
   them — rebuilt only when a subscription changes — plus the backend's
   access step.  [slow] is true exactly when an access has more to run than
   its poll and stats: an access subscriber, or a step other than
   [no_step]. *)
and probe = {
  mutable subs : subscriber list;  (* subscription order *)
  mutable accesses : (t -> line:int -> access_kind -> unit) array;
  mutable events : (int * (t -> Event.t -> unit)) array;  (* (scope, f) *)
  mutable entries : (t -> unit) array;
  mutable step : t -> line:int -> access_kind -> unit;
  mutable slow : bool;
}

and subscriber = {
  scope : int;  (* heap scope of [event]; [-1] = every scope *)
  access : (t -> line:int -> access_kind -> unit) option;
  event : (t -> Event.t -> unit) option;
  handler_entry : (t -> unit) option;
}

let fresh_stats () =
  {
    reads = 0;
    writes = 0;
    cass = 0;
    fences = 0;
    local_work = 0;
    allocs = 0;
    frees = 0;
    retires = 0;
    ops = 0;
    neutralized = 0;
    signals_sent = 0;
    signals_ignored = 0;
  }

let no_step _ ~line:_ _ = ()

let make ~pid ~nprocs ~seed =
  {
    pid;
    nprocs;
    sig_pending = Atomic.make false;
    sig_mask = 0;
    handler = (fun _ -> ());
    probe =
      {
        subs = [];
        accesses = [||];
        events = [||];
        entries = [||];
        step = no_step;
        slow = false;
      };
    now_impl = (fun () -> 0);
    stall_impl = (fun _ -> ());
    rng = Random.State.make [| seed; pid |];
    stats = fresh_stats ();
  }

let[@inline never] deliver ctx =
  Atomic.set ctx.sig_pending false;
  let es = ctx.probe.entries in
  for i = 0 to Array.length es - 1 do
    es.(i) ctx
  done;
  ctx.handler ctx

let[@inline] poll ctx =
  if ctx.sig_mask = 0 && Atomic.get ctx.sig_pending then deliver ctx

(* Masking defers handler delivery; the pending flag stays set, so the
   handler runs at the first access after the outermost [unmask] — the
   moral equivalent of [pthread_sigmask] around a lock-held critical
   section. *)
let mask ctx = ctx.sig_mask <- ctx.sig_mask + 1

let unmask ctx =
  assert (ctx.sig_mask > 0);
  ctx.sig_mask <- ctx.sig_mask - 1

let[@inline never] observe ctx ~line kind =
  let fs = ctx.probe.accesses in
  for i = 0 to Array.length fs - 1 do
    fs.(i) ctx ~line kind
  done;
  ctx.probe.step ctx ~line kind

let access ctx ~line kind =
  poll ctx;
  let s = ctx.stats in
  (match kind with
  | Read -> s.reads <- s.reads + 1
  | Write -> s.writes <- s.writes + 1
  | Cas -> s.cass <- s.cass + 1
  | Fence -> s.fences <- s.fences + 1
  | Work c -> s.local_work <- s.local_work + c);
  if ctx.probe.slow then observe ctx ~line kind

let subscriber ?(scope = -1) ?access ?event ?handler_entry () =
  { scope; access; event; handler_entry }

let update_slow p = p.slow <- Array.length p.accesses > 0 || p.step != no_step

let recompose p =
  let chan get = Array.of_list (List.filter_map get p.subs) in
  let scoped s = Option.map (fun f -> (s.scope, f)) in
  p.accesses <- chan (fun s -> s.access);
  p.events <- chan (fun s -> scoped s s.event);
  p.entries <- chan (fun s -> s.handler_entry);
  update_slow p

let subscribe ctx s =
  let p = ctx.probe in
  if List.memq s p.subs then invalid_arg "Ctx.subscribe: already subscribed";
  p.subs <- p.subs @ [ s ];
  recompose p

let unsubscribe ctx s =
  let p = ctx.probe in
  p.subs <- List.filter (fun s' -> s' != s) p.subs;
  recompose p

let set_access_step ctx f =
  ctx.probe.step <- f;
  update_slow ctx.probe

let clear_access_step ctx =
  ctx.probe.step <- no_step;
  update_slow ctx.probe

let fast_path ctx = not ctx.probe.slow

let in_scope s scope = s < 0 || s = scope
let observed ctx = Array.length ctx.probe.events > 0

let emit ctx ~scope ev =
  let es = ctx.probe.events in
  for i = 0 to Array.length es - 1 do
    let s, f = es.(i) in
    if in_scope s scope then f ctx ev
  done

let scopes = Atomic.make 0
let new_scope () = Atomic.fetch_and_add scopes 1

let add_hook ctx f =
  let s = subscriber ~access:f () in
  subscribe ctx s;
  fun () -> unsubscribe ctx s

(* [Work c] for the small costs charged on hot paths, built once, so that
   charging them allocates nothing. *)
let work_kinds = Array.init 512 (fun c -> Work c)

let work ctx cost =
  access ctx ~line:0
    (if cost >= 0 && cost < Array.length work_kinds then work_kinds.(cost)
     else Work cost)

let fence ctx = access ctx ~line:0 Fence
let now ctx = ctx.now_impl ()
let stall ctx cycles = ctx.stall_impl cycles
let crash _ctx = raise Crashed

let reset_stats ctx =
  let s = ctx.stats in
  s.reads <- 0;
  s.writes <- 0;
  s.cass <- 0;
  s.fences <- 0;
  s.local_work <- 0;
  s.allocs <- 0;
  s.frees <- 0;
  s.retires <- 0;
  s.ops <- 0;
  s.neutralized <- 0;
  s.signals_sent <- 0;
  s.signals_ignored <- 0

let stats_total_accesses s = s.reads + s.writes + s.cass + s.fences
