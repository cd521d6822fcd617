(** Batched unit-rate exponential sampler — the Poisson-clock source of
    the asynchronous engine.

    RNG-consumption contract: [next] returns exactly the sequence
    [Dist.exponential rng 1.0] would produce when called once per ring,
    in draw order.  The k-th [next] always yields the k-th draw, so every
    value consumed is independent of [batch]; the batch only controls how
    eagerly the generator is advanced (a refill pre-draws [batch] gaps,
    over-drawing up to [batch - 1]).  Because of that over-draw the
    stream must own its generator: interleaving other draws on the same
    [rng] would make results batch-dependent.  The async engine therefore
    splits one dedicated clock generator off the run generator up front
    ({!Rumor_prob.Rng.split}) and feeds it only to this stream. *)

type t

val create : ?batch:int -> Rumor_prob.Rng.t -> t
(** [create ?batch rng] (default batch 4096) takes ownership of [rng].
    @raise Invalid_argument if [batch < 1]. *)

val next : t -> float
(** The next Exp(1) gap, refilling the buffer from the generator when it
    is drained. *)
