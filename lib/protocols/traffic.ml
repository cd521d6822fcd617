module Graph = Rumor_graph.Graph

type t = {
  graph : Graph.t;
  counters : int array;  (* indexed by the canonical (u < v) arc index *)
  mutable total : int;
}

let create graph = { graph; counters = Array.make (Graph.arc_count graph) 0; total = 0 }

let slot t u v = Graph.edge_index t.graph (min u v) (max u v)

let record t u v =
  let i = slot t u v in
  t.counters.(i) <- t.counters.(i) + 1;
  t.total <- t.total + 1

let calls t = Rumor_obs.Instrument.make ~on_contact:(record t) ()

let steps t =
  Rumor_obs.Instrument.make
    ~on_walker_move:(fun ~agent:_ ~from_ ~to_ ->
      if from_ <> to_ then record t from_ to_)
    ()

let count t u v = t.counters.(slot t u v)

let total t = t.total

let loads t =
  let acc = ref [] in
  Graph.iter_edges t.graph (fun u v -> acc := count t u v :: !acc);
  Array.of_list (List.rev !acc)

type fairness = {
  edges : int;
  mean : float;
  cv : float;
  min_load : int;
  max_load : int;
  max_over_mean : float;
}

let fairness t =
  if t.total = 0 then invalid_arg "Traffic.fairness: no traffic recorded";
  let ls = loads t in
  let stats = Rumor_prob.Stats.create () in
  Array.iter (Rumor_prob.Stats.add_int stats) ls;
  let mean = Rumor_prob.Stats.mean stats in
  let sd = if Array.length ls < 2 then 0.0 else Rumor_prob.Stats.stddev stats in
  let min_load = Array.fold_left min max_int ls in
  let max_load = Array.fold_left max 0 ls in
  {
    edges = Array.length ls;
    mean;
    cv = (if mean > 0.0 then sd /. mean else 0.0);
    min_load;
    max_load;
    max_over_mean = (if mean > 0.0 then float_of_int max_load /. mean else 0.0);
  }
