(** The SMR event type ({!Runtime.Event.t}), re-exported so emitters spell
    [Memory.Smr_event.Retire p].  Events travel on the acting context's
    probe under the emitting heap's scope ({!Runtime.Ctx.emit}); hot
    emitters test {!Runtime.Ctx.observed} first, so unobserved
    instrumentation allocates nothing. *)

include Runtime.Event
