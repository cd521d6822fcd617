(** Deterministic, splittable pseudo-random number generation.

    The generator is xoshiro256** seeded through SplitMix64, which is the
    standard recommendation of Blackman and Vigna: SplitMix64 decorrelates
    arbitrary user seeds, and xoshiro256** provides a fast, high-quality
    256-bit-state stream.  All simulation randomness in this repository flows
    through this module, so a run is fully determined by its 64-bit seed.

    Generators are mutable; use {!split} to derive statistically independent
    child generators for replicated experiments. *)

type t
(** A mutable pseudo-random generator. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val copy : t -> t
(** [copy g] is a generator with the same state as [g]; the two evolve
    independently afterwards. *)

val split : t -> t
(** [split g] advances [g] and returns a fresh generator whose stream is
    statistically independent of [g]'s future output.  Used to give each
    replication of an experiment its own stream. *)

val split_n : t -> int -> t array
(** [split_n g n] is [n] children split off [g], guaranteed to be in split
    order: element [i] is the [(i+1)]-th call of [split g].  Pre-splitting a
    whole batch this way pins the child-to-replication assignment before any
    work is scheduled, which is what makes parallel replication
    ({!Rumor_par.Pool}) bit-identical to the sequential run.
    @raise Invalid_argument if [n < 0]. *)

val bits64 : t -> int64
(** [bits64 g] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is exactly uniform on [0, bound), by rejection.

    For [bound <= 2^30] it is {!below}: [int] checks its argument and
    then draws exactly as [below g bound] does, the same value from the
    same outputs.

    For [2^30 < bound <= 2^61] it rejects on 61 bits with one division:
    an output's low 61 bits [r] are rejected iff they fall in the
    incomplete last block of [bound]-sized blocks, and [r mod bound] is
    the result.

    [int] is inlined with both rejection loops and its argument checks:
    on every path that returns it makes no call, so a loop that draws
    through it keeps its values in registers (a call, even on a branch
    never taken, would spill them).

    @raise Invalid_argument if [bound <= 0] or [bound > 2^61] (no 61-bit
    draw could be accepted). *)

val below : t -> int -> int
(** [below g bound] is {!int}[ g bound] without the argument check: the
    kernels' per-contact draw, for loops whose bounds were checked once
    per run.

    It is Lemire's multiply-shift: the high 32 bits [x] of one {!bits64}
    output give [m = x * bound], the draw is rejected iff the low 32 bits
    of [m] are below [2^32 mod bound] (computed, with the one division,
    only when they are below [bound]), and the result is [m lsr 32].  A
    draw is rejected with probability below [bound / 2^32 <= 1/4], so
    most calls take one output and no division; [below g 1] takes exactly
    one output and is never rejected.

    Precondition: [1 <= bound <= 2^30].  Nothing checks it; outside that
    range the result is not uniform on [0, bound) and need not lie in it
    (a product past 2^62 wraps).  Every vertex degree qualifies, since
    degrees are below [Graph.max_vertices] = 2^24.  Only [lib/prob],
    [lib/graph], [lib/protocols] and tests may call it (CI greps for
    it). *)

val skip : t -> int -> unit
(** [skip g k] advances [g] by [k] outputs ([k <= 0]: by none), allocating
    nothing.  Each output is exactly one [below g 1] (or [int g 1]) draw,
    which is how push charges a contact whose outcome is known. *)

val float : t -> float -> float
(** [float g x] is uniform on [0, x).  [float g 1.0] has 53 random bits. *)

val bool : t -> bool
(** [bool g] is a fair coin flip: the low bit of one {!bits64} output,
    inlined like {!int}. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p]. *)
