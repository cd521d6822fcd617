(** Continuous-time meet-exchange: the [33, 34] variant of the paper's
    agent-only protocol (Kesten–Sidoravicius studied it on the infinite
    grid; here it runs on finite graphs).

    Each agent carries an independent unit-rate Poisson clock; when it
    rings, the agent jumps to a uniformly random neighbor and exchanges the
    rumor with every agent standing on its new vertex.  The source vertex
    informs the first agent to occupy it (agents starting there count).
    {!Async_engine.meet_exchange} runs it; this module holds the result
    type.

    Like the synchronous protocol, an omitted [lazy_walk] resolves to lazy
    iff the graph is bipartite.  Continuous time terminates either way —
    the default only keeps the walk law aligned with the synchronous
    protocol's safe default; pass [~lazy_walk:false] to study the pure
    [33]/[34] model on bipartite graphs.

    Because moves are never simultaneous, the bipartite parity trap of the
    synchronous protocol disappears: two agents on K_2 meet in O(1) expected
    time even though their synchronized counterparts would swap forever.
    Ablation A8 measures exactly this (passing [~lazy_walk:false]
    explicitly), alongside the continuous/discrete agreement on
    non-bipartite graphs. *)

type result = {
  broadcast_time : float option;
      (** continuous time when every agent is informed; [None] if capped *)
  rings : int;
  informed : int;
  agents : int;
  curve : int array;
      (** informed-agent count sampled at integer times, in the format of
          {!Async_push.result}'s curve *)
}

val to_run_result : result -> Run_result.t
(** Project onto the synchronous result type, like
    {!Async_push.to_run_result}; [contacts] counts one contact per newly
    informed agent and [all_agents_informed] equals the (rounded-up)
    broadcast time. *)
