(** Instrumented shared arrays of integers.

    Unlike {!Svar}, elements of a shared array can share cache lines (8 words
    per line) unless [~padded:true] is given, in which case each element gets
    its own line.  This is how the library models the paper's layout
    concerns: DEBRA pads per-process announcements to avoid false sharing,
    and the ablation benchmarks measure what happens without padding.

    [~padded:true] also pads for real: each cell's [Atomic.t] is allocated
    as an oversized heap block (atomic primitives act on field 0, so
    behavior is unchanged), keeping per-process announcement and epoch
    slots on distinct {e hardware} cache lines when trials run on the
    domains backend. *)

type t

val create : ?padded:bool -> int -> t

(** [rows n k] is [n] per-process rows of [k] cells each: one announcement
    row per process, written only by its owner and scanned by the others.
    Host and simulated layouts differ on purpose.  On the host every cell is
    padded as under [~padded:true], so no two processes' rows share a
    hardware cache line on the domains backend.  In the simulator each row
    is packed exactly as [create k] packs it (8 cells per line, every row
    starting on a fresh line), so simulated costs equal those of
    [Array.init n (fun _ -> create k)]. *)
val rows : int -> int -> t array

val length : t -> int
val get : Ctx.t -> t -> int -> int
val set : Ctx.t -> t -> int -> int -> unit
val cas : Ctx.t -> t -> int -> expect:int -> int -> bool
val faa : Ctx.t -> t -> int -> int -> int

(** Uninstrumented accessors for setup and assertions. *)

val peek : t -> int -> int
val poke : t -> int -> int -> unit
