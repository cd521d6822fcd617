(** Exact random-walk quantities on small graphs, by solving the linear
    systems the walk satisfies.

    These are the ground-truth values the simulation engine is validated
    against (hitting times have textbook closed forms on paths, cycles and
    cliques), and the inputs to the Dimitriou–Nikoletseas–Spirakis bound
    the paper cites ([16]: the meet-exchange broadcast time is at most
    O(log n) times the maximum meeting time).

    Complexities: {!hitting_times} solves one n×n system (O(n^3));
    {!meeting_times} solves a system over ordered vertex pairs (O(n^6)) and
    is guarded to small n. *)

val hitting_times : ?lazy_walk:bool -> Graph.t -> int -> float array
(** [hitting_times g target] is the exact expected number of steps for a
    simple random walk to first reach [target], from each start vertex
    (entry [target] is 0).  [lazy_walk] (default false) computes the
    lazy-walk variant, which is exactly twice the simple one.
    @raise Invalid_argument if [g] is disconnected or [target] is out of
    range. *)

val max_meeting_time : ?lazy_walk:bool -> ?max_n:int -> Graph.t -> float
(** [max_meeting_time g] is the exact maximum over start pairs of the
    expected time until two independent walks occupy the same vertex
    (simultaneously).  Solves an (n^2)-variable system, so it is guarded by
    [max_n] (default 40): graphs with more vertices are rejected.
    On bipartite graphs the non-lazy walks may never meet from odd-parity
    pairs; use [lazy_walk:true] there.
    @raise Invalid_argument if [g] is too large, disconnected, or the
    non-lazy system is singular (bipartite parity trap). *)
