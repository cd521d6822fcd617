(** A small fork/join domain pool for replicated simulations.

    [Pool] is the only module in the tree allowed to touch [Domain] and
    [Atomic] (lint rule R7 confines concurrency primitives to [lib/par/]).
    Work is scheduled in chunks off a shared atomic counter, so a slow item
    never serializes the rest of its pre-assigned stripe; all spawned
    domains are joined before {!init_traced} returns, even when a worker
    raises.

    The pool runs item computations concurrently but promises nothing about
    their order.  Callers that need deterministic output must make each
    item's computation self-contained — see {!Rumor_sim.Replicate}, which
    pre-splits one RNG per replication in index order and defers all
    observable effects to an ordered pass after the join. *)

type t
(** A parallelism degree.  Creating a pool allocates nothing and spawns no
    domains; workers are forked per {!init_traced} call and joined before it
    returns, so a pool value can be kept and reused freely. *)

val create : jobs:int -> t
(** [create ~jobs] is a pool running [jobs] workers per call, the calling
    domain included — [jobs = 1] never spawns and degrades to the plain
    sequential loop.  [jobs = 0] means [Domain.recommended_domain_count ()].
    @raise Invalid_argument if [jobs < 0]. *)

val init_traced :
  ?trace:Rumor_obs.Trace.t ->
  ?label:string ->
  t ->
  int ->
  (trace:Rumor_obs.Trace.t option -> int -> 'a) -> 'a array
(** [init_traced t n f] is [Array.init n (f ~trace)] computed by the
    pool's workers.  [f] is called exactly once per index on some worker
    domain, in no particular order; indices never overlap, so [f] may
    freely write to per-index slots of shared arrays.  If any call raises,
    the first failure (in completion order, not index order) is re-raised
    with its backtrace after all workers have been joined; remaining
    workers stop at their next chunk boundary.

    When [trace] is present, every worker
    runs under its own tracer — the calling domain records straight into
    [trace], each spawned domain into a {!Rumor_obs.Trace.fork}ed child that
    is merged back after the domain joins — and [f] receives the tracer of
    whichever worker runs it, so item computations can open their own spans
    on the right track.  Each claimed chunk is bracketed in a span named
    [label] (default ["pool.chunk"]) whose [arg] is the chunk's first index,
    each worker's lifetime in a ["pool.worker"] span, and the fork/join
    edges are marked with instants on the parent — which is what makes idle
    gaps between chunks visible in the rendered trace.  When [trace] is
    [None] (the default), [f] sees [~trace:None]: no clocks, no allocation.
    @raise Invalid_argument if [n < 0]. *)
