(** The Section 5 coupling of push and visit-exchange, as executable code.

    The paper's main technical device couples the two protocols through
    shared per-vertex lists of i.i.d. uniform neighbors [w_u(1), w_u(2), ...]:

    - in push, [w_u(i)] is the [i]-th neighbor vertex [u] samples after it
      becomes informed;
    - in visit-exchange, [w_u(i)] is the destination of the [i]-th departure
      from [u] by an agent that found [u] informed (departures ordered by
      round, ties by agent id) — exactly the [p_u(i)] of Section 5.1.

    Because both protocols consume the {e same} lists, their executions are
    coupled on one probability space.  The module also maintains the
    C-counters of Eq. (4) during the coupled visit-exchange run, so the key
    invariant of Lemma 13 — [tau_u <= C_u(t_u)] for every vertex [u], where
    [tau_u] is [u]'s informing round in the coupled push — can be checked
    mechanically on any instance (experiment E9).

    Optionally the full visit history [|Z_v(t)|] is recorded, which allows
    reconstructing the canonical walk of Lemma 14 and verifying that its
    congestion [Q(theta)] equals [C_u(t_u)] by an independent computation. *)

type t
(** Shared randomness: the [w_u] lists (generated lazily, memoized) plus the
    walk randomness for the visit-exchange side. *)

val create : Rumor_prob.Rng.t -> Rumor_graph.Graph.t -> source:int -> t
(** [create rng g ~source].  The generator is split internally; a given
    [rng] seed determines the whole coupled experiment. *)

(* lint: allow R12 — tests check the shared choices are memoized and uniform *)
val shared_choice : t -> int -> int -> int
(** [shared_choice c u i] is [w_u(i)] (0-based [i]), generating and
    memoizing it if not yet drawn.  Exposed for tests. *)

(** Outcome of the coupled visit-exchange run. *)
type visitx_outcome = {
  vertex_time : int array;
      (** [t_u]: informing round per vertex; [max_int] if the cap hit first *)
  agent_time : int array;
  c_counter : int array;
      (** [C_u(t_u)] per vertex (Eq. 4); [max_int] where uninformed *)
  parent : int array;
      (** the minimizing neighbor of [S_u] (Lemma 13's path); -1 at the
          source and at uninformed vertices *)
  completed : bool;
  rounds_run : int;
  history : int array array option;
      (** with [~record_history:true]: [history.(t).(v) = |Z_v(t)|] *)
}

val run_visit_exchange :
  ?record_history:bool ->
  t ->
  agents:Rumor_agents.Placement.spec ->
  max_rounds:int ->
  visitx_outcome
(** Runs visit-exchange once, with informed departures consuming the shared
    lists.  May be called once per coupling (the shared lists are consumed
    in a deterministic order, so a second run would be identically
    distributed but is rejected to avoid confusion).
    @raise Invalid_argument if called twice. *)

val run_push : t -> max_rounds:int -> int array
(** Runs the coupled push process: vertex [u], once informed, contacts
    [w_u(1), w_u(2), ...] in successive rounds.  Returns [tau_u] per vertex
    ([max_int] if the cap hit first).  push consumes no randomness beyond
    the shared lists, so this is deterministic given the coupling state. *)

val lemma13_violations : tau:int array -> visitx_outcome -> int list
(** Vertices informed in both coupled runs for which [tau_u > C_u(t_u)] —
    Lemma 13 says this list is always empty. *)

val canonical_walk : visitx_outcome -> int -> int array
(** [canonical_walk o u] reconstructs the Lemma 14 canonical walk
    [theta_0 = source, ..., theta_{t_u} = u] along the [parent] chain with
    stay-put rounds inserted.  @raise Invalid_argument if [u] was not
    informed. *)

val congestion : visitx_outcome -> int array -> int
(** [congestion o walk] is [Q(theta) = sum over t < length-1 of
    |Z_(theta_t)(t)|], computed from the recorded history.  Lemma 14:
    [congestion o (canonical_walk o u) = o.c_counter.(u)].
    @raise Invalid_argument if the history was not recorded. *)

val max_neighborhood_load : visitx_outcome -> Rumor_graph.Graph.t -> int
(** The largest [sum over v in N(u) of |Z_v(t)|] seen over all vertices [u]
    and recorded rounds — the quantity Eq. (3) clamps in t-visit-exchange.
    Lemma 12 says it stays O(d) w.h.p. for d-regular graphs with
    [d = Omega(log n)].  Requires history. *)
