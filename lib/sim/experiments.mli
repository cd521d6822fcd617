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
      density, lazy walks, initial placement, bandwidth fairness); A8–A10
      and R1, R2, R6, R7, R9 check related-work results and gate the
      async and sparse-walker kernels.

    Every table of rows × protocol columns is a {!Sweep.t} that
    {!Sweep.run} measures; E9, A4, A8, R7 and A10 run their own loops.
    All experiments are deterministic given [seed] and scale with the
    [profile]. *)

type profile =
  | Quick  (** small grids, few replications: seconds per experiment *)
  | Full   (** the full grids, whose report [rumor_experiments --markdown
               FILE] writes: minutes overall *)

type t = {
  id : string;  (** "E1" ... "E10", "A1" ... "A4", "A8" ... "A10", "R1", "R2", "R6", "R7", "R9" *)
  title : string;
  paper_ref : string;  (** e.g. "Fig 1(b), Lemma 3" *)
  run : Sweep.config -> profile -> seed:int -> Table.t list;
}

val all : t list
(** Every experiment, in id order. *)

val find : string -> t option
(** Lookup by id, case-insensitive. *)

val select : string list -> Protocol.walkers -> t list
(** [select ids walkers] is the experiments [ids] name, in that order, or
    every experiment when [ids] is empty.
    @raise Invalid_argument ["unknown experiment ID (known: E1, ...)"] for
    an id that {!find} does not know, and when [walkers] is [Sparse] and
    E10 is selected: E10 measures the combined protocol, which has no
    sparse-walker kernel.  Both checks come before any experiment runs. *)

val run_one : Sweep.config -> profile -> seed:int -> t -> Table.t list
(** Run one experiment, as a trace span named by its id. *)

val run_all :
  ?ids:string list ->
  ?metrics:Rumor_obs.Run_record.sink ->
  ?trace:Rumor_obs.Trace.t ->
  ?jobs:int ->
  ?walkers:Protocol.walkers ->
  profile ->
  seed:int ->
  (t * Table.t list) list
(** {!select} [ids] (default: all) and {!run_one} each of them with the
    {!Sweep.config} built from the optional arguments.

    When [metrics] is given, every replicated cell emits one
    {!Rumor_obs.Run_record.t} to it.  A {!Sweep} cell labels its records
    ["<table id>/<row label>"] (["E1/129"], ["E6b/512 (9)"]), so records of
    different graphs never share a label; A10's cells, which measure
    outside a sweep, label theirs with the experiment id.

    [jobs] (default [1]; [0] = all cores) runs each cell's replications on
    that many domains via {!Replicate.broadcast_times} — tables and metrics
    are bit-identical for every setting.  Only the replicated cell
    measurements parallelize; the experiments that drive their own
    sequential loops (E9, A4, A8, R7) ignore it.

    [walkers] (default [Dense]) selects the walker representation for the
    agent-based cells ({!Protocol.run}'s [?walkers]).  [Sparse] or
    [Auto]-resolved-sparse cells are seed-deterministic but sample a
    different path than dense — the A10 gate bounds the distributional
    drift, and A10 itself always measures both representations.

    [trace] records every experiment as a span named by its id, with each
    measured cell's per-rep instrumentation underneath
    ({!Replicate.broadcast_times}'s [?trace]); results are unchanged. *)
