(** Per-line suppression comments: [(* lint: allow R1 — reason *)] on a line
    suppresses findings for the listed rules on that line and the one directly
    below it. *)

type t

val scan : string -> t
(** Scan raw source text for suppression comments. *)

val allows : t -> line:int -> id:string -> name:string -> bool
(** [allows t ~line ~id ~name] is true when a suppression for rule [id] (or
    its short [name], case-insensitive) covers [line].  The matching
    suppressions are recorded as used. *)

val stale : t -> file:string -> ran:(string * string) list -> Finding.t list
(** [stale t ~file ~ran] is one finding per suppression token that names a
    rule of [ran] (its [(id, name)] pairs: the rules that ran on [file])
    and that no {!allows} call has matched: an allow that suppresses
    nothing.  Each finding carries that rule's id and name, at the line's
    first marker.  Tokens naming rules outside [ran] are not judged. *)

val hot_lines : string -> int list
(** 1-based line numbers carrying a [(* lint: hot *)] marker; a marker on a
    definition's first line or the line above it opts that definition into
    R10's no-allocation-in-loops check. *)
