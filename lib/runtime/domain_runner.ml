type outcome = Finished | Crashed of exn

let run ?(cycles_per_second = 1_000_000_000.) ?tick group bodies =
  let n = Group.nprocs group in
  assert (Array.length bodies = n);
  let start = Unix.gettimeofday () in
  let now () =
    int_of_float ((Unix.gettimeofday () -. start) *. cycles_per_second)
  in
  let install ctx =
    ctx.Ctx.now_impl <- now;
    (* A stalled process sleeps, staying non-quiescent: the pathology
       DEBRA+ exists to neutralize.  A signal wakes it to run its handler,
       as a POSIX signal interrupts [nanosleep]; otherwise a sleeper could
       acknowledge nothing until its stall ends. *)
    ctx.Ctx.stall_impl <-
      (fun cycles ->
        let until =
          Unix.gettimeofday () +. (float_of_int cycles /. cycles_per_second)
        in
        let rec nap () =
          let left = until -. Unix.gettimeofday () in
          if left > 0. && not (Atomic.get ctx.Ctx.sig_pending) then begin
            Unix.sleepf (Float.min left 1e-4);
            nap ()
          end
        in
        nap ();
        Ctx.poll ctx)
  in
  Array.iter install group.Group.ctxs;
  (* A signal here is a flag the target reads at its next instrumented
     access, and a target past that poll may be preempted before its
     memory operation for as long as the OS likes.  So a sent signal
     proves nothing until the target's announcement acknowledges it. *)
  group.Group.signals_unreliable <- true;
  let outcomes = Array.make n Finished in
  (* The periodic sampler: a dedicated domain driving the telemetry tick at
     roughly one call per [every] cycles of wall time.  Unlike the
     simulator's exact virtual-time boundaries, cadence and timestamps here
     are approximate (scheduling jitter); the callback still only ever runs
     outside every workload domain. *)
  let sampler_stop = Atomic.make false in
  let sampler =
    Option.map
      (fun (every, f) ->
        if every <= 0 then
          invalid_arg "Domain_runner.run: tick interval must be > 0";
        let period = float_of_int every /. cycles_per_second in
        Domain.spawn (fun () ->
            while not (Atomic.get sampler_stop) do
              Unix.sleepf period;
              if not (Atomic.get sampler_stop) then f (now ())
            done))
      tick
  in
  let domains =
    Array.init n (fun pid ->
        Domain.spawn (fun () ->
            match bodies.(pid) () with
            | () -> Finished
            | exception e ->
                (* Mark the pid dead the instant it dies, not after the
                   join barrier: survivors doing fault-tolerant reclamation
                   (DEBRA+'s ESRCH path, ThreadScan's lock steal) must see
                   a dead process while the run is still in flight, or they
                   wait forever on a corpse. *)
                Group.mark_crashed group pid;
                Crashed e))
  in
  Array.iteri (fun pid d -> outcomes.(pid) <- Domain.join d) domains;
  Atomic.set sampler_stop true;
  Option.iter Domain.join sampler;
  let elapsed = Unix.gettimeofday () -. start in
  (* Re-raise real failures (but not simulated crashes). *)
  Array.iter
    (function
      | Crashed Ctx.Crashed | Finished -> ()
      | Crashed e -> raise e)
    outcomes;
  (elapsed, outcomes)
