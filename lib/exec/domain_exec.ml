(** {!Intf.RUNNER} on real OCaml 5 domains — the first-class promotion of
    {!Runtime.Domain_runner}.

    One domain per group member plus (when sampling) one sampler domain;
    [Ctx.now] is wall-clock time scaled to {!Clock.wall} cycles (1 cycle =
    1 ns).  Crash bookkeeping is live: a body dying with
    {!Runtime.Ctx.Crashed} is marked in the group from its own domain, so
    fault-tolerant reclaimers observe ESRCH mid-run exactly as they do
    under the simulator.

    What degrades relative to {!Sim_exec} is spelled out in [limitations]
    (and DESIGN.md §10): no cache model, approximate sampling cadence, no
    livelock diagnosis, and none of the deterministic-replay machinery
    that the sanitizer and the sim-only chaos triggers rely on.  Signal
    delivery is not on the list: the runner makes neutralization
    acknowledgement-based (see {!Runtime.Domain_runner}), so a signalled
    process that is preempted past its poll is waited for, not assumed
    stopped. *)

let limitations =
  [
    "no cache model: cache_stats and context_switches are not reported";
    "sampling cadence and tick timestamps are approximate (wall-clock \
     sleeps, not exact boundaries)";
    "no livelock diagnosis: a wedged run hangs instead of raising Stuck";
    "not deterministic: sanitizer, telemetry event counters and chaos \
     triggers that need a global order (handler/neutralizer crashes, \
     signal drop/delay windows) are unavailable";
  ]

let make ?(clock = Clock.wall) () : (module Intf.RUNNER) =
  (module struct
    let name = "domains"
    let clock = clock
    let deterministic = false
    let limitations = limitations

    let run ?tick group bodies =
      let elapsed, _outcomes =
        Runtime.Domain_runner.run
          ~cycles_per_second:clock.Clock.cycles_per_second ?tick group bodies
      in
      {
        Intf.elapsed_cycles = Clock.cycles_of_seconds clock elapsed;
        wall_seconds = elapsed;
        cache_stats = None;
        context_switches = 0;
      }
  end)
