type event = {
  name : string;
  cat : string;
  ph : char;
  ts : float;  (* µs *)
  dur : float;  (* µs, X only *)
  pid : int;
  args : (string * Json.t) list;
}

type t = {
  cycles_per_us : float;
  max_events : int;
  mutable events : event list;  (* newest first *)
  mutable n : int;
  mutable dropped : int;
}

let create ?(max_events = 1_000_000) ~cycles_per_us () =
  if cycles_per_us <= 0.0 then
    invalid_arg "Trace.create: cycles_per_us must be positive";
  { cycles_per_us; max_events; events = []; n = 0; dropped = 0 }

let us t cycles = float_of_int cycles /. t.cycles_per_us

let push t ev =
  if t.n >= t.max_events then t.dropped <- t.dropped + 1
  else begin
    t.events <- ev :: t.events;
    t.n <- t.n + 1
  end

let thread_name t ~pid name =
  push t
    {
      name = "thread_name";
      cat = "__metadata";
      ph = 'M';
      ts = 0.0;
      dur = 0.0;
      pid;
      args = [ ("name", Json.String name) ];
    }

let complete t ~pid ~name ~cat ~start ~finish =
  let finish = if finish < start then start else finish in
  push t
    {
      name;
      cat;
      ph = 'X';
      ts = us t start;
      dur = us t (finish - start);
      pid;
      args = [];
    }

let instant t ~pid ~name ~cat ~at ?(args = []) () =
  push t { name; cat; ph = 'i'; ts = us t at; dur = 0.0; pid; args }

let events t = t.n
let dropped t = t.dropped

let event_json ev =
  let base =
    [
      ("name", Json.String ev.name);
      ("cat", Json.String ev.cat);
      ("ph", Json.String (String.make 1 ev.ph));
      ("ts", Json.Float ev.ts);
      ("pid", Json.Int 0);
      ("tid", Json.Int ev.pid);
    ]
  in
  let base = if ev.ph = 'X' then base @ [ ("dur", Json.Float ev.dur) ] else base in
  let base = if ev.ph = 'i' then base @ [ ("s", Json.String "t") ] else base in
  let base =
    if ev.args = [] then base else base @ [ ("args", Json.Obj ev.args) ]
  in
  Json.Obj base

let to_json t =
  let evs = List.rev_map event_json t.events in
  let top =
    [
      ("traceEvents", Json.List evs);
      ("displayTimeUnit", Json.String "ns");
    ]
  in
  let top =
    if t.dropped > 0 then
      top @ [ ("telemetryDroppedEvents", Json.Int t.dropped) ]
    else top
  in
  Json.Obj top

let write_file t file = Json.to_file file (to_json t)
