(** Sampling from the standard discrete and continuous distributions used by
    the simulator and its tests.

    All samplers take the {!Rng.t} explicitly so that callers control
    determinism. *)

val binomial : Rng.t -> int -> float -> int
(** [binomial g n p] samples Bin(n, p): [n] Bernoulli trials for
    [n <= 32], and the waiting-time (geometric skip) method otherwise, on
    [1 - p] when [p > 1/2]; exact for all parameter ranges,
    O(n * min(p, 1 - p) + 1) expected time past [n = 32].
    @raise Invalid_argument if [n < 0] or [p] is outside [0, 1]. *)

val exponential : Rng.t -> float -> float
(** [exponential g rate] samples Exp(rate), mean [1/rate], as an Exp(1)
    draw divided by [rate].

    The Exp(1) draw is Marsaglia and Tsang's ziggurat with 256 layers of
    equal area v = 0.0039496598225815571993 under the density e^-x, the
    base strip reaching r = 7.69711747013104972.  The tables are built
    once, when the module initializes, and only read afterwards, so
    domains may share them.  One {!Rng.bits64} output gives the layer (its
    low 8 bits) and a 53-bit uniform (its high 53 bits); about 98.9% of
    draws end there, with a compare and a multiply and no allocation.  The
    rest take the wedge test (one {!Rng.float} and an [exp]) and start
    over with a fresh output on rejection, or, from the base strip's tail,
    return r plus a fresh Exp(1) draw.  So one draw takes one or more
    outputs of [g].
    @raise Invalid_argument unless [rate > 0.] (so also for a NaN rate). *)

val multinomial : Rng.t -> int -> float array -> int array
(** [multinomial g n w] splits [n] trials across [Array.length w] bins with
    probabilities [w.(i) / sum w], by chained conditional {!binomial} draws
    (bin [i] gets Bin(remaining, w_i / remaining mass)).  Exact; the returned
    counts always sum to [n]; zero-weight bins receive 0.  The count-sweep
    walker kernels inline the uniform-weight specialization of this chain.
    @raise Invalid_argument if [n < 0], [w] is empty, any weight is negative,
    or the total weight is not positive. *)
