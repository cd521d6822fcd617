(** Small dense linear algebra: just enough to compute exact random-walk
    quantities (hitting times, stationary equations) on test-sized graphs.

    Matrices are [float array array] in row-major order; all operations are
    O(n^3) or better and intended for n up to a few hundred. *)

val solve : float array array -> float array -> float array
(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting.  [a] and [b] are not modified.
    @raise Invalid_argument on non-square/mismatched input or a (numerically)
    singular matrix. *)
