(** Fenwick (binary indexed) tree over non-negative integer counts, to
    sample an index with probability proportional to its count: [find t r]
    with [r] uniform on [0, total t) picks index [i] with probability
    [c.(i) / total t], in O(log n).  No kernel uses it; perfbench's
    [prob.fenwick_find_ns] probe times it. *)

type t

val of_counts : int array -> t
(** [of_counts c] builds the tree holding the non-negative counts [c] in
    O(n). *)

val total : t -> int
(** Sum of all counts, O(1). *)

val find : t -> int -> (int * int)
(** [find t r] for [0 <= r < total t] returns [(i, residual)] where [i] is
    the unique index with [c.(0) + ... + c.(i-1) <= r < c.(0) + ... + c.(i)]
    and [residual] is [r] less the first of those sums (uniform on the
    slot's count when [r] is uniform — callers reuse it as a second draw).
    Allocates the pair.
    @raise Invalid_argument if [r] is outside [0, total t). *)
