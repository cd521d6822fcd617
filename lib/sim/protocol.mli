(** First-class protocol descriptors, so sweeps and tables can treat the
    four protocols (and the hybrid) uniformly. *)

type lazy_mode =
  | Lazy_off   (** simple random walks *)
  | Lazy_on    (** stay put with probability 1/2 each round *)
  | Lazy_auto  (** lazy iff the graph is bipartite — the paper's convention
                   for meet-exchange *)

type spec =
  | Push
  | Push_pull
  | Visit_exchange of { agents : Rumor_agents.Placement.spec; laziness : lazy_mode }
  | Meet_exchange of { agents : Rumor_agents.Placement.spec; laziness : lazy_mode }
  | Combined of { agents : Rumor_agents.Placement.spec; laziness : lazy_mode }
  | Async_push  (** continuous-time push: unit-rate Poisson clocks, [41] *)
  | Async_push_pull  (** continuous-time push-pull *)
  | Async_meet_exchange of {
      agents : Rumor_agents.Placement.spec;
      laziness : lazy_mode;
    }  (** continuous-time meet-exchange, [33, 34] *)

val push : spec
val push_pull : spec

val visit_exchange : ?alpha:float -> unit -> spec
(** Visit-exchange with [Linear alpha] stationary agents (default 1.0) and
    non-lazy walks. *)

val meet_exchange : ?alpha:float -> unit -> spec
(** Meet-exchange with [Linear alpha] agents and [Lazy_auto] walks. *)

val combined : ?alpha:float -> unit -> spec

val async_push : spec
val async_push_pull : spec

val async_meet_exchange : ?alpha:float -> unit -> spec
(** Continuous-time meet-exchange with [Linear alpha] agents (default 1.0)
    and [Lazy_auto] walks, mirroring {!meet_exchange}. *)

val name : spec -> string
(** Short stable name: "push", "push-pull", "visit-exchange",
    "meet-exchange", "combined", "async-push", "async-push-pull",
    "async-meet-exchange". *)

val names : string list
(** Every protocol's {!name}, one per constructor, in the order above. *)

val of_name :
  agents:Rumor_agents.Placement.spec -> laziness:lazy_mode -> string -> spec option
(** The spec whose {!name} is the given string, if any; an agent-based spec
    gets [agents] and [laziness]. *)

type walkers = Rumor_protocols.Sparse_walkers.mode = Dense | Sparse | Auto
(** Walker representation for the agent-based kernels — see
    {!Rumor_protocols.Engine}.  [Dense] keeps per-agent positions and the
    full per-agent observation stream; [Sparse] switches to
    count-compressed per-vertex occupancy (seed-deterministic,
    distributionally equivalent — gated by experiment A10 — but a
    different sample path); [Auto] picks sparse above
    {!Rumor_protocols.Sparse_walkers.auto_threshold} agents. *)

val walkers_name : walkers -> string
val walkers_of_string : string -> walkers option

val run :
  ?obs:Rumor_obs.Instrument.t ->
  ?trace:Rumor_obs.Trace.t ->
  ?walkers:walkers ->
  spec ->
  Rumor_prob.Rng.t ->
  Rumor_graph.Graph.t ->
  source:int ->
  max_rounds:int ->
  Rumor_protocols.Run_result.t
(** Dispatch to the protocol's kernel: {!Rumor_protocols.Engine} for push,
    push-pull, visit-exchange, meet-exchange and combined, and
    {!Rumor_protocols.Async_engine} for the continuous-time specs.

    [obs] is honoured by every protocol: each fires
    {!Rumor_obs.Instrument} hooks once per round plus one [on_contact] per
    communication (and [on_walker_move] per agent step for the agent-based
    processes), so {!Rumor_protocols.Traffic.calls} and
    {!Rumor_protocols.Traffic.steps} record per-edge traffic through it.

    Every kernel runs sequentially on the caller's domain, so the result is
    a pure function of [rng]'s state.  [walkers] (default [Dense]) selects
    the walker representation for visit-exchange and meet-exchange;
    combined has dense walkers only, so an explicit [Sparse] raises
    [Invalid_argument] for it ([Auto] resolves to dense).  The other specs ignore it,
    async-meet-exchange included: its one kernel serves every mode.

    The continuous-time specs ([Async_push], [Async_push_pull],
    [Async_meet_exchange]) read [max_rounds] as the time horizon
    [max_time = float max_rounds] and project the DES result through
    [to_run_result]: [broadcast_time] is the rounded-up continuous time,
    the curve samples the informed count at integer times.  They have no
    round structure, so [obs] fires no [on_round_start] hooks.

    [trace] wraps the whole run in a ["run.<name>"] span and threads
    through to the kernel's per-round instrumentation; it never changes
    the result. *)
