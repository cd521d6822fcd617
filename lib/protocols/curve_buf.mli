(** Growable informed-count curve buffer shared by the sync protocols.

    A protocol records one curve point per simulated round.  Pre-sizing that
    curve to the round cap makes memory O(cap), which breaks "uncapped" runs
    ([max_rounds = max_int] style); this buffer grows by doubling instead, so
    memory is O(rounds actually run). *)

type t

val create : hint:int -> t
(** [create ~hint] is an empty buffer.  [hint] is the round cap (so the
    curve holds at most [hint + 1] points); at most 64 slots are allocated
    up front, so a generous — even [max_int] — cap costs nothing.
    @raise Invalid_argument if [hint < 0]. *)

val push : t -> int -> unit
(** Append one curve point, growing the backing store if needed. *)

val length : t -> int

val contents : t -> int array
(** Fresh array of the points pushed so far, in order. *)
