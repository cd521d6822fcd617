(** The experiment suite: one experiment per figure panel / theorem of the
    paper (see DESIGN.md section 3 for the full index).

    - E1–E5 reproduce Figure 1(a)–(e) (Lemmas 2, 3, 4, 8, 9): the five
      separator families on which the protocols' broadcast times diverge
      polynomially or logarithmically.
    - E6 and E7 reproduce the regular-graph results (Theorems 1/10/19,
      and 23–25 in one sweep).
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
  id : string;
      (** "E1" ... "E7", "E9", "E10", "A1" ... "A4", "A8" ... "A10", "R1", "R2", "R6",
          "R7", "R9" *)
  title : string;
  paper_ref : string;  (** e.g. "Fig 1(b), Lemma 3" *)
  run : Sweep.config -> profile -> seed:int -> Table.t list;
}

val all : t list
(** Every experiment, in id order. *)

val select : string list -> Protocol.walkers -> t list
(** [select ids walkers] is the experiments [ids] name, in that order, or
    every experiment when [ids] is empty.
    @raise Invalid_argument ["unknown experiment ID (known: E1, ...)"] for
    an id no experiment has (ids match case-insensitively), and when
    [walkers] is [Sparse] and E10 is selected: E10 measures the combined
    protocol, which has no sparse-walker kernel.  Both checks come before
    any experiment runs. *)

val run_one : Sweep.config -> profile -> seed:int -> t -> Table.t list
(** Run one experiment, as a trace span named by its id.

    With [cfg.metrics], every replicated cell emits one
    {!Rumor_obs.Run_record.t}.  A {!Sweep} cell labels its records
    ["<table id>/<row label>"] (["E1/129"], ["E6b/512 (9)"]), so records of
    different graphs never share a label; A10's cells, which measure
    outside a sweep, label theirs ["A10/<family>/<walkers>"].  [cfg.jobs]
    parallelizes only the replicated cells, and tables and records are
    bit-identical for every setting: the experiments that drive their own
    sequential loops (E9, A4, A8, R7) ignore it.  A10 always measures both
    walker representations, whatever [cfg.walkers] says. *)
