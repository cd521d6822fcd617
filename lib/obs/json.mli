(** A minimal JSON reader/writer for the observability pipeline.

    Covers exactly the JSON subset the repo emits ({!Run_record.to_json},
    {!Baseline}, {!Trace}): objects, arrays, strings (with the
    standard escapes plus [\uXXXX], including surrogate pairs), numbers,
    booleans and [null].  Numbers without a fraction or exponent parse as
    {!Int} when they fit in an OCaml [int], otherwise as {!Float}.

    This is deliberately not a general JSON library: no lazy parsing, no
    streaming, no number-preserving round-trips beyond what the metrics
    pipeline needs — and therefore no external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** fields in source order; duplicates kept *)

exception Error of { pos : int; msg : string }
(** Parse failure at byte offset [pos] (0-based) of the input.  A printer
    is registered, so the exception formats as ["JSON error at byte N: msg"]. *)

val parse : string -> t
(** Parse one JSON value occupying the whole string (surrounding
    whitespace allowed; anything after the value is an error).
    @raise Error on malformed input or trailing garbage. *)

val parse_result : string -> (t, string) result
(** {!parse} with the error rendered to a message instead of raised. *)

(** {1 Accessors} — shape-checked extraction, [None] on mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an object; [None] otherwise. *)

val to_int : t -> int option
val to_float : t -> float option
(** Accepts both {!Float} and {!Int}; [Null] maps to [Some nan] so that
    metrics serialized from non-finite floats read back as they were. *)

val to_string : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

(** {1 Emission} *)

val to_string_json : t -> string
(** Compact single-line rendering.  Non-finite floats emit as [null]
    (JSON has no representation for them). *)

val buf_add_string_literal : Buffer.t -> string -> unit
(** Append a quoted, escaped JSON string literal.  Bytes are passed
    through untouched except for the mandatory escapes, so UTF-8 input
    stays UTF-8. *)

val buf_add_int : Buffer.t -> int -> unit
(** Append an int as {!string_of_int} spells it, [min_int] included,
    without building the string. *)

val buf_add_float : Buffer.t -> float -> unit
(** Append a float as its shortest round-trippable decimal ([%.17g]);
    non-finite values emit as [null]. *)
