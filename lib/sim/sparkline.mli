(** One-line charts for informed-count curves in terminal output.

    Renders a numeric series as a fixed-width string of block characters
    (or ASCII with [~ascii:true]), downsampling long series by taking the
    maximum in each bucket so completion spikes are never lost. *)

val render : ?width:int -> ?ascii:bool -> float array -> string
(** [render xs] is a [width]-character (default 60) sparkline of [xs],
    scaled to [0 .. max xs].  An empty series renders as "".  Negative
    values are clamped to 0. *)

val render_ints : ?width:int -> ?ascii:bool -> int array -> string
