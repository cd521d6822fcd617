(** Performance baselines and the regression gate over them.

    A baseline is an {!Aggregate.t} snapshotted to one JSON file (schema
    ["rumor-baseline/1"]; per-replicate curves are not persisted — only
    summaries).  {!check} diffs a freshly aggregated run against it, metric
    by metric, and renders a structured verdict: the CI job and
    [rumor_report check] exit nonzero iff [passed] is false. *)

(** Relative tolerance per compared metric: a group {e regresses} on a
    metric when [current_mean > baseline_mean *. (1. +. tol)], and
    {e improves} when [current_mean < baseline_mean *. (1. -. tol)].
    Equality at either boundary still passes. *)
type tolerances = {
  broadcast : float;
  contacts : float;
  wall : float;
  alloc : float;
}

val default_tolerances : tolerances
(** Broadcast time and contacts are deterministic given the seed, so they
    get tight 10% tolerances; wall-clock is machine-noisy (50%); allocation
    is deterministic but build-flag-sensitive (15%). *)

val uniform : float -> tolerances
(** The same relative tolerance for every metric ([rumor_report
    --tolerance]). *)

type status = Pass | Regressed | Improved

type check = {
  graph : string;
  protocol : string;
  metric : string;  (** ["broadcast"], ["contacts"], ["wall_seconds"] or
                        ["alloc_words"] *)
  baseline_mean : float;
  current_mean : float;
  ratio : float;  (** [current /. baseline]; [infinity] when the baseline
                      mean is zero and the current one is not *)
  tolerance : float;
  status : status;
}

type report = {
  checks : check list;
  missing : (string * string) list;
      (** baseline groups absent from the current run — the gate cannot
          vouch for them, so they fail {!passed} *)
  added : (string * string) list;
      (** current groups with no baseline; informational only *)
}

val check :
  ?tol:tolerances -> baseline:Aggregate.t -> current:Aggregate.t -> unit -> report

val regressions : report -> check list
val passed : report -> bool
(** No regressed metric and no missing group. *)

(** {1 Snapshot persistence} *)

val of_json : string -> (Aggregate.t, string) result
(** Loaded groups carry an empty [mean_curve]. *)

val save : string -> Aggregate.t -> unit
