(* Bandwidth fairness: why the agent-based protocols win on bottleneck
   topologies (Section 1's "locally fair use of bandwidth").

     dune exec examples/fairness_demo.exe

   Both push-pull and visit-exchange run for the same fixed number of rounds
   on the double star, recording per-edge traffic.  push-pull hammers the
   leaf edges (every leaf calls its center every round) but crosses the
   center-center bridge only with probability ~4/n per round; the agents use
   every edge at the same expected rate, bridge included. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen_paper = Rumor_graph.Gen_paper
module P = Rumor_protocols
open Rumor_agents.Placement

let () =
  let leaves = 512 in
  let ds = Gen_paper.double_star ~leaves_per_star:leaves in
  let g = ds.Gen_paper.ds_graph in
  let rounds = 400 in
  Format.printf "double star, n = %d, both protocols run exactly %d rounds@.@."
    (Graph.n g) rounds;

  let traffic_of name run =
    let traffic = P.Traffic.create g in
    run traffic;
    let f = P.Traffic.fairness traffic in
    let bridge = P.Traffic.count traffic ds.Gen_paper.ds_center_a ds.Gen_paper.ds_center_b in
    let leaf_edge = P.Traffic.count traffic ds.Gen_paper.ds_center_a ds.Gen_paper.ds_leaf_a in
    Format.printf "%s:@." name;
    Format.printf "  mean edge load     %.1f@." f.P.Traffic.mean;
    Format.printf "  a typical leaf edge %d uses@." leaf_edge;
    Format.printf "  the bridge edge     %d uses (%.3f of the mean)@." bridge
      (float_of_int bridge /. f.P.Traffic.mean);
    Format.printf "  min/max edge load  %d / %d@.@." f.P.Traffic.min_load
      f.P.Traffic.max_load
  in

  traffic_of "push-pull" (fun traffic ->
      ignore
        (P.Engine.push_pull ~obs:(P.Traffic.calls traffic) (Rng.of_int 1) g
           ~source:ds.Gen_paper.ds_leaf_a ~max_rounds:rounds ()));
  traffic_of "visit-exchange" (fun traffic ->
      ignore
        (P.Engine.visit_exchange ~obs:(P.Traffic.steps traffic) (Rng.of_int 2)
           g ~source:ds.Gen_paper.ds_leaf_a ~agents:(Linear 1.0)
           ~max_rounds:rounds ()));

  Format.printf
    "the bridge is the only route between the stars: push-pull starves it,@.";
  Format.printf
    "so its broadcast time is Omega(n); the agents cross it every O(1) rounds.@."
