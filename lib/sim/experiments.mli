(** The experiment suite: one experiment per figure panel / theorem of the
    paper (see DESIGN.md section 3 for the full index).

    - E1–E5 reproduce Figure 1(a)–(e) (Lemmas 2, 3, 4, 8, 9): the five
      separator families on which the protocols' broadcast times diverge
      polynomially or logarithmically.
    - E6–E8 reproduce the regular-graph results (Theorems 1/10/19, 23,
      24/25).
    - E9 exercises the Section 5 proof machinery (coupling, C-counters,
      Lemma 13/14 invariants) on random instances.
    - E10 checks the introduction's claim that combining push-pull with
      visit-exchange is fast on both families that defeat each component.
    - A1–A4 are ablations of design choices the paper calls out (agent
      density, lazy walks, initial placement, bandwidth fairness).

    All experiments are deterministic given [seed] and scale with the
    [profile]. *)

type profile =
  | Quick  (** small grids, few replications: seconds per experiment *)
  | Full   (** the full grids, whose report [rumor_experiments --markdown
               FILE] writes: minutes overall *)

(** What a suite run threads into every replicated cell measurement
    ({!Replicate.broadcast_times}). *)
type config = {
  metrics : Rumor_obs.Run_record.sink option;
      (** receives one {!Rumor_obs.Run_record.t} per replication *)
  jobs : int;  (** replication domains; tables are identical for any value *)
  walkers : Protocol.walkers;  (** walker representation of the cells *)
  trace : Rumor_obs.Trace.t option;  (** records every cell's reps *)
}

val default_config : config
(** No sink, one job, dense walkers, no tracer. *)

type t = {
  id : string;  (** "E1" ... "E10", "A1" ... "A5", "A8" ... "A10", "R1", "R2", "R6", "R7", "R9" *)
  title : string;
  paper_ref : string;  (** e.g. "Fig 1(b), Lemma 3" *)
  run : config -> profile -> seed:int -> Table.t list;
}

val all : t list
(** Every experiment, in id order. *)

val find : string -> t option
(** Lookup by id, case-insensitive. *)

val run_all :
  ?ids:string list ->
  ?metrics:Rumor_obs.Run_record.sink ->
  ?trace:Rumor_obs.Trace.t ->
  ?jobs:int ->
  ?walkers:Protocol.walkers ->
  profile ->
  seed:int ->
  (t * Table.t list) list
(** Run the selected (default: all) experiments and collect their tables,
    each with a {!config} built from the optional arguments.  When
    [metrics] is given, every replicated cell measurement emits one
    {!Rumor_obs.Run_record.t} to it, with the record's [graph] field set to
    the experiment id (experiments build their graphs from closures, so the
    id is the most useful label available).  An id that {!find} does not
    know raises [Invalid_argument "unknown experiment ID (known: E1, ...)"]
    before any experiment runs.

    [jobs] (default [1]; [0] = all cores) runs each cell's replications on
    that many domains via {!Replicate.broadcast_times} — tables and metrics
    are bit-identical for every setting.  Only the replicated cell
    measurements parallelize; the experiments that drive their own
    sequential loops (E9, A4, A5, A8, R7) ignore it.

    [walkers] (default [Dense]) selects the walker representation for the
    agent-based cells ({!Protocol.run}'s [?walkers]).  [Sparse] or
    [Auto]-resolved-sparse cells are seed-deterministic but sample a
    different path than dense — the A10 gate bounds the distributional
    drift, and A10 itself always measures both representations.  [Sparse]
    with E10 selected (by id, or by giving no ids) raises
    [Invalid_argument] before any experiment runs: E10 measures the
    combined protocol, which has no sparse-walker kernel.

    [trace] records every experiment as a span named by its id, with each
    measured cell's per-rep instrumentation underneath
    ({!Replicate.broadcast_times}'s [?trace]); results are unchanged. *)
