(** The checking discipline of a reclamation scheme: which rules the
    shadow checkers hold its {!Smr_event} stream to.  Each reclaimer
    declares one value of this type; the sanitizer (lib/sanitizer), the one
    shadow state machine, applies it both to random-schedule runs and to
    every world of bounded exploration, so the scheme-to-rules mapping is
    written once, next to the scheme. *)

(** What an instrumented field access is checked against.

    - [Lenient]: accesses are not checked (StackTrack, VBR: reading
      reclaimed memory is the sanctioned abort / rollback mechanism).
    - [Epoch]: only access to a {e freed} record is a violation — retired
      records remain safe to traverse (EBR/QSBR/DEBRA family, ThreadScan,
      Hyaline).
    - [Hazard]: additionally, access to a {e retired} record is a violation
      unless the accessing process registered a protection {e before} the
      retire (HP, RC). *)
type access = Lenient | Epoch | Hazard

(** What a free of a retired record is checked against.

    - [Skip]: frees are not checked ([none] never frees; StackTrack and VBR
      free under other processes' unvalidated pointers by design).
    - [Grace_session]: a free is premature while any process is still inside
      the operation (session) that was open when the record was retired
      (EBR, DEBRA, DEBRA+, Hyaline's batch reference counts).
    - [Grace_qpoint]: a free is premature while any process has not passed a
      quiescent point since the retire (QSBR).
    - [Hazard_scan]: a free is premature while any process holds a
      protection registered before the retire (HP, RC, ThreadScan). *)
type free = Skip | Grace_session | Grace_qpoint | Hazard_scan

(** Whether quiescence is an {e interval} the process brackets with
    [Leave_q]..[Enter_q] (every scheme but QSBR) or an instantaneous
    {e point} it announces ([Enter_q] with no bracket, QSBR).  The
    operation-boundary access rule is only meaningful for intervals: under
    point quiescence a process is presumed inside a critical section at all
    times. *)
type quiescence = Interval | Point

type t = {
  access : access;
  free : free;
  quiescence : quiescence;
  track_limbo : bool;
      (** the retired-but-unfreed ledger must agree with the reclaimer's
          [limbo_size] after a quiescent flush; off for [none] (leaks by
          design) and for deliberately broken schemes under test *)
}

(** [make access free] with interval quiescence and the ledger tracked
    unless said otherwise. *)
let make ?(quiescence = Interval) ?(track_limbo = true) access free =
  { access; free; quiescence; track_limbo }
