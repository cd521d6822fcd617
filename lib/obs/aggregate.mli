(** Grouped summaries over recorded runs.

    The paper's claims — and the related-work evaluations (Doerr–Fouz,
    Daknama) — are about broadcast-time {e distributions}, so an aggregate
    reports order statistics (median, p90, p99) next to the mean for every
    metric, not just averages.  Records are grouped by their
    [(graph, protocol)] label pair: one group per table row in
    [rumor_report summary], one comparison unit in {!Baseline}. *)

(** A {!Rumor_prob.Stats.summary} extended with the tail quantiles the
    regression gate cares about. *)
type metric = {
  summary : Rumor_prob.Stats.summary;
  p90 : float;
  p99 : float;
}

type group = {
  graph : string;
  protocol : string;
  runs : int;  (** number of records in the group *)
  capped : int;  (** how many of them hit their round cap *)
  vertices : int;  (** largest |V| seen in the group *)
  broadcast : metric;
      (** broadcast times; a capped run contributes its [rounds_run]
          (an under-estimate, same convention as
          [Rumor_sim.Replicate]'s [`Keep]) — check [capped] *)
  contacts : metric;
  wall_seconds : metric;
  alloc_words : metric;
      (** GC words allocated per run: [minor + major - promoted] *)
  mean_curve : float array;
      (** pointwise mean informed-count curve; shorter replicate curves are
          padded with their final value (curves are monotone, so that is
          the count they hold at every later round).  [[||]] if no record
          carried a curve. *)
}

type t = group list
(** Sorted by [(graph, protocol)]. *)

val of_records : Run_record.t list -> t
(** Group and summarize; records with the same [(graph, protocol)] label
    land in one group regardless of seed or rep, so multi-seed sweeps
    aggregate naturally. *)

val find : t -> graph:string -> protocol:string -> group option
