(** A minimal self-contained JSON value type, printer and parser.

    The toolchain available to this repo deliberately excludes third-party
    JSON libraries, and the telemetry subsystem only needs a small,
    predictable subset: objects, arrays, strings, ints, floats and bools —
    enough to write Chrome trace files and metrics dumps, and to parse them
    back in tests.  Numbers are kept split into [Int] and [Float] so that
    virtual-time counters round-trip exactly. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Strings are escaped per RFC 8259;
    non-finite floats are rendered as [null] (Chrome's trace viewer rejects
    bare [nan]). *)

val to_buffer : Buffer.t -> t -> unit
(** Same rendering, appended to an existing buffer — used by {!to_file}
    to avoid building a large document as one string list. *)

val to_file : ?newline:bool -> string -> t -> unit
(** [to_file file json] writes the compact rendering to [file], followed
    by a newline unless [~newline:false]. *)

exception Parse_error of string
(** Raised by {!of_string} with a short description and byte offset. *)

val of_string : string -> t
(** Recursive-descent parser for the same subset.  Accepts any whitespace
    between tokens; numbers with [.], [e] or [E] parse as [Float], all
    others as [Int].  Raises {!Parse_error} on malformed input or trailing
    garbage. *)

val member : string -> t -> t option
(** [member key json] is the value bound to [key] if [json] is an object
    containing it. *)
