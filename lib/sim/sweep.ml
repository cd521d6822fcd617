module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Trace = Rumor_obs.Trace

type config = {
  metrics : Rumor_obs.Run_record.sink option;
  jobs : int;
  walkers : Protocol.walkers;
  trace : Trace.t option;
}

type graph =
  | Fixed of (unit -> Graph.t * int)
  | Sampled of (Rng.t -> Graph.t * int)

type 'row t = {
  id : string;
  title : string;
  claim : string;
  header : string list;
  seed : int;
  reps : int;
  rows : 'row list;
  label : 'row -> string;
  graph : 'row -> graph;
  columns : ('row -> Protocol.spec) list;
  max_rounds : 'row -> int;
  render : 'row -> Replicate.measurement array -> string list;
  notes : ('row * Replicate.measurement array) list -> string list;
}

let cell_seed seed i j = (seed * 1_000_003) + (i * 7919) + j

let time_cell (m : Replicate.measurement) =
  let text = Table.fmt_mean_pm m.summary in
  if m.capped > 0 then Printf.sprintf ">=%s (%d capped)" text m.capped else text

(* One row: its graph is built here when fixed (not lazily, which would not
   be domain-safe under [jobs]), shared by every cell, and garbage once the
   measurements are returned. *)
let measure_row cfg s i row =
  let graph =
    match s.graph row with
    | Sampled sample -> sample
    | Fixed build ->
        let built = Trace.with_span cfg.trace "graph.build" build in
        fun _rng -> built
  in
  let graph_name = s.id ^ "/" ^ s.label row in
  let max_rounds = s.max_rounds row in
  Array.of_list
    (List.mapi
       (fun j spec ->
         Replicate.broadcast_times ?sink:cfg.metrics ~graph_name ~jobs:cfg.jobs
           ?trace:cfg.trace ~walkers:cfg.walkers ~seed:(cell_seed s.seed i j)
           ~reps:s.reps ~graph ~spec:(spec row) ~max_rounds ())
       s.columns)

let run cfg s =
  let measured = List.mapi (fun i row -> (row, measure_row cfg s i row)) s.rows in
  Table.make
    ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) (List.tl s.header))
    ~notes:(s.notes measured) ~title:s.title ~claim:s.claim ~header:s.header
    (List.map (fun (row, ms) -> s.render row ms) measured)
