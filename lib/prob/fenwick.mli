(** Fenwick (binary indexed) tree over non-negative integer counts, to
    sample an index with probability proportional to its count: [find t r]
    with [r] uniform on [0, total t) picks index [i] with probability
    [get t i / total t], in O(log n); {!find_into} does so with no
    allocation.  No kernel uses it; perfbench's [prob.fenwick_find_ns]
    probe times it.

    Counts must stay non-negative; [add] with a delta that would drive a
    slot negative is not checked (the walker kernels only move existing
    mass, so their deltas are always balanced). *)

type t

val create : int -> t
(** [create n] is an all-zero tree over indices [0, n).
    @raise Invalid_argument if [n < 0]. *)

val of_counts : int array -> t
(** [of_counts c] builds the tree holding [c] in O(n). *)

val size : t -> int

val total : t -> int
(** Sum of all counts; maintained incrementally, O(1). *)

val add : t -> int -> int -> unit
(** [add t i delta] adds [delta] to slot [i].
    @raise Invalid_argument if [i] is out of range. *)

val get : t -> int -> int
(** [get t i] is the current count at [i]; O(log n). *)

val prefix : t -> int -> int
(** [prefix t i] is the sum of slots [0, i); O(log n).
    @raise Invalid_argument if [i] is outside [0, size t]. *)

val find : t -> int -> (int * int)
(** [find t r] for [0 <= r < total t] returns [(i, residual)] where [i] is
    the unique index with [prefix t i <= r < prefix t (i+1)] and
    [residual = r - prefix t i] (uniform on the slot's count when [r] is
    uniform — callers reuse it as a second draw).  Allocates the pair.
    @raise Invalid_argument if [r] is outside [0, total t). *)

val find_into : t -> int -> residual:int ref -> int
(** [find_into t r ~residual] is [find t r] without the pair: it returns
    [i] and stores the residual in [residual]; O(log n), no allocation.
    @raise Invalid_argument if [r] is outside [0, total t). *)
