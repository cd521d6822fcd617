(** Measured tables as values.

    Most of the paper's claims are rows × protocol columns of replicated
    broadcast times.  A sweep describes one such table (its rows, how each
    row's graph is made, the protocol measured in each column, and how a
    row's measurements render) and {!run} is the one interpreter that
    measures and renders every sweep of the suite. *)

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

(** How a row's graph and source are made. *)
type graph =
  | Fixed of (unit -> Rumor_graph.Graph.t * int)
      (** a deterministic graph: built once per row, under a
          ["graph.build"] span, before the row's first cell; every cell and
          every rep of the row runs on it, and it is dropped after the row.
          Graphs are immutable, so the domains of [jobs > 1] share it. *)
  | Sampled of (Rumor_prob.Rng.t -> Rumor_graph.Graph.t * int)
      (** a random graph model: re-sampled in every rep, from the rep's
          generator, before the protocol runs on it *)

type 'row t = {
  id : string;  (** e.g. ["E6b"]; prefixes every record's graph label *)
  title : string;
  claim : string;
  header : string list;  (** the first column is left-aligned, the rest right *)
  seed : int;  (** base seed: cell (i, j) measures on {!cell_seed}[ seed i j] *)
  reps : int;
  rows : 'row list;
  label : 'row -> string;
      (** the row's records carry the graph label ["<id>/<label>"] *)
  graph : 'row -> graph;
  columns : ('row -> Protocol.spec) list;  (** the measured protocols *)
  max_rounds : 'row -> int;
  render : 'row -> Replicate.measurement array -> string list;
      (** the table row, from the row's measurements in column order *)
  notes : ('row * Replicate.measurement array) list -> string list;
      (** the lines under the table, from every row's measurements *)
}

val cell_seed : int -> int -> int -> int
(** [cell_seed seed i j]: decorrelated per-cell seeds, so adding a row or a
    column does not move any other cell's draws. *)

val run : config -> 'row t -> Table.t
(** Measure every cell, row by row and column by column, and render the
    table.  Results do not depend on [config.jobs]. *)

val time_cell : Replicate.measurement -> string
(** ["mean ± ci"], prefixed [">="] and suffixed with the count when some
    reps hit the round cap. *)
