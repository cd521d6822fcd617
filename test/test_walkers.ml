(* Tests for Rumor_agents.Walkers. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Placement = Rumor_agents.Placement
module Walkers = Rumor_agents.Walkers

let make ?lazy_walk seed g spec =
  Walkers.of_spec ?lazy_walk (Rng.of_int seed) g spec

let test_initial_state () =
  let g = Gen.cycle 6 in
  let w = make 81 g Placement.One_per_vertex in
  Alcotest.(check int) "agent count" 6 (Walkers.agent_count w);
  Alcotest.(check int) "round 0" 0 (Walkers.round w);
  for v = 0 to 5 do
    Alcotest.(check int) "occupancy 1 each" 1 (Walkers.occupancy w v)
  done

let test_moves_follow_edges () =
  let g = Gen.cycle 8 in
  let w = make 82 g Placement.One_per_vertex in
  for _ = 1 to 50 do
    let before = Array.copy (Walkers.positions w) in
    Walkers.step w;
    Array.iteri
      (fun a u ->
        let v = Walkers.position w a in
        if not (Graph.mem_edge g u v) then
          Alcotest.failf "agent %d moved %d -> %d, not an edge" a u v)
      before
  done;
  Alcotest.(check int) "round counter" 50 (Walkers.round w)

let test_occupancy_tracks_positions () =
  let g = Gen.complete 5 in
  let w = make 83 g (Placement.Stationary 20) in
  for _ = 1 to 30 do
    Walkers.step w;
    let counts = Array.make 5 0 in
    Array.iter (fun v -> counts.(v) <- counts.(v) + 1) (Walkers.positions w);
    for v = 0 to 4 do
      Alcotest.(check int) "occupancy matches" counts.(v) (Walkers.occupancy w v)
    done
  done

let test_occupancy_sums_to_agents () =
  let g = Gen.torus ~rows:4 ~cols:4 in
  let w = make 84 g (Placement.Stationary 37) in
  for _ = 1 to 20 do
    Walkers.step w;
    let sum = ref 0 in
    for v = 0 to Graph.n g - 1 do
      sum := !sum + Walkers.occupancy w v
    done;
    Alcotest.(check int) "total occupancy" 37 !sum
  done

let test_lazy_walk_sometimes_stays () =
  let g = Gen.cycle 10 in
  let w = make ~lazy_walk:true 85 g Placement.One_per_vertex in
  let stays = ref 0 and moves = ref 0 in
  for _ = 1 to 100 do
    let before = Array.copy (Walkers.positions w) in
    Walkers.step w;
    Array.iteri
      (fun a u -> if Walkers.position w a = u then incr stays else incr moves)
      before
  done;
  let total = float_of_int (!stays + !moves) in
  let stay_rate = float_of_int !stays /. total in
  Alcotest.(check bool)
    (Printf.sprintf "stay rate %.3f near 0.5" stay_rate)
    true
    (Float.abs (stay_rate -. 0.5) < 0.05)

let test_non_lazy_always_moves () =
  (* on a cycle a non-lazy walk can never stay (no self-loops) *)
  let g = Gen.cycle 10 in
  let w = make 86 g Placement.One_per_vertex in
  for _ = 1 to 50 do
    let before = Array.copy (Walkers.positions w) in
    Walkers.step w;
    Array.iteri
      (fun a u ->
        if Walkers.position w a = u then Alcotest.failf "agent %d stayed put" a)
      before
  done

let test_step_with_reports_moves () =
  let g = Gen.complete 4 in
  let w = make 87 g (Placement.Stationary 10) in
  let before = Array.copy (Walkers.positions w) in
  Walkers.step_with w (fun a from to_ ->
      Alcotest.(check int) "from is previous position" before.(a) from;
      Alcotest.(check int) "to is new position" (Walkers.position w a) to_)

let test_walk_is_uniform_over_neighbors () =
  let g = Gen.star ~leaves:4 in
  (* an agent on the center picks each leaf with probability 1/4 *)
  let w = make 88 g (Placement.All_at (0, 1)) in
  let counts = Array.make 5 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    (* odd rounds: agent is on a leaf; even rounds: back at center *)
    Walkers.step w;
    counts.(Walkers.position w 0) <- counts.(Walkers.position w 0) + 1;
    Walkers.step w
  done;
  for leaf = 1 to 4 do
    let p = float_of_int counts.(leaf) /. float_of_int trials in
    if Float.abs (p -. 0.25) > 0.02 then Alcotest.failf "leaf %d rate %.3f" leaf p
  done

let test_rejects_agent_on_isolated_vertex () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  try
    ignore (Walkers.create (Rng.of_int 89) g [| 2 |]);
    Alcotest.fail "isolated start accepted"
  with Invalid_argument _ -> ()

let test_step_with_agent_order () =
  (* every agent moves exactly once per round, in agent-index order *)
  let g = Gen.torus ~rows:3 ~cols:3 in
  let w = make 90 g (Placement.Stationary 25) in
  for _ = 1 to 5 do
    let next = ref 0 in
    Walkers.step_with w (fun a _ _ ->
        Alcotest.(check int) "agent order" !next a;
        incr next);
    Alcotest.(check int) "one call per agent" 25 !next
  done;
  Alcotest.(check int) "round counter" 5 (Walkers.round w)

let suite =
  [
    Alcotest.test_case "initial state" `Quick test_initial_state;
    Alcotest.test_case "moves follow edges" `Quick test_moves_follow_edges;
    Alcotest.test_case "occupancy tracks positions" `Quick test_occupancy_tracks_positions;
    Alcotest.test_case "occupancy sums to agent count" `Quick test_occupancy_sums_to_agents;
    Alcotest.test_case "lazy walk stays ~half the time" `Quick test_lazy_walk_sometimes_stays;
    Alcotest.test_case "non-lazy always moves" `Quick test_non_lazy_always_moves;
    Alcotest.test_case "step_with reports moves" `Quick test_step_with_reports_moves;
    Alcotest.test_case "step_with agent order" `Quick test_step_with_agent_order;
    Alcotest.test_case "uniform neighbor choice" `Quick test_walk_is_uniform_over_neighbors;
    Alcotest.test_case "rejects isolated start" `Quick test_rejects_agent_on_isolated_vertex;
  ]
