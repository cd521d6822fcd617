(** Per-edge traffic accounting, for the paper's bandwidth-fairness claim.

    The introduction attributes the strength of the agent-based protocols to
    "locally fair use of bandwidth: all edges are used with the same
    frequency".  This accumulator counts traversals/contacts per undirected
    edge so experiments can compare the empirical edge-load distribution of
    push-pull against visit-exchange (ablation A4).  Kernels fill it
    through [?obs]: see {!calls} and {!steps}. *)

type t

val create : Rumor_graph.Graph.t -> t
(** One counter per undirected edge, all zero. *)

val calls : t -> Rumor_obs.Instrument.t
(** Records each [on_contact u v]: pass it to push or push-pull. *)

val steps : t -> Rumor_obs.Instrument.t
(** Records each [on_walker_move] with [from_ <> to_]: pass it to dense
    visit-exchange or meet-exchange (sparse walkers fire no moves). *)

val count : t -> int -> int -> int
(** Accumulated uses of edge {u,v}. *)

(* lint: allow R12 — tests check kernel contact counts against it *)
val total : t -> int

(* lint: allow R12 — the golden kernel digests hash it *)
val loads : t -> int array
(** Per-edge totals in {!Rumor_graph.Graph.iter_edges} order. *)

(** Dispersion summary of the per-edge load distribution. *)
type fairness = {
  edges : int;
  mean : float;
  cv : float;        (** coefficient of variation: stddev / mean *)
  min_load : int;
  max_load : int;
  max_over_mean : float;
}

val fairness : t -> fairness
(** @raise Invalid_argument if no traffic was recorded. *)
