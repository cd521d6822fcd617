(* Tests for the visit-exchange kernel, Rumor_protocols.Engine.visit_exchange. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Algo = Rumor_graph.Algo
module Placement = Rumor_agents.Placement
module Engine = Rumor_protocols.Engine
module Run_result = Rumor_protocols.Run_result

let run ?lazy_walk ?(agents = Placement.Linear 1.0) seed g source =
  Engine.visit_exchange ?lazy_walk (Rng.of_int seed) g ~source ~agents
    ~max_rounds:1_000_000 ()

(* the run plus each vertex's informing round *)
let run_tau rng g source ~max_rounds =
  let tau = Array.make (Graph.n g) 0 in
  let r =
    Engine.visit_exchange ~tau rng g ~source ~agents:(Placement.Linear 1.0)
      ~max_rounds ()
  in
  (r, tau)

let test_completes_on_small_graphs () =
  List.iter
    (fun (g, s) ->
      let r = run 131 g s in
      Alcotest.(check bool) "completed" true (Run_result.completed r))
    [
      (Gen.complete 2, 0);
      (Gen.complete 20, 3);
      (Gen.cycle 12, 0);
      (Gen.star ~leaves:15, 0);
      (Gen.torus ~rows:4 ~cols:4, 5);
    ]

let test_vertex_time_source_zero () =
  let _, tau = run_tau (Rng.of_int 132) (Gen.complete 10) 4 ~max_rounds:1_000_000 in
  Alcotest.(check int) "source informed at 0" 0 tau.(4)

let test_vertex_times_respect_distance () =
  (* information travels along edges one hop per round, so t_v >= dist(s, v) *)
  List.iter
    (fun (g, s) ->
      let _, tau = run_tau (Rng.of_int 133) g s ~max_rounds:1_000_000 in
      let dist = Algo.bfs_distances g s in
      Array.iteri
        (fun v tv ->
          if tv < dist.(v) then
            Alcotest.failf "vertex %d informed at %d < distance %d" v tv dist.(v))
        tau)
    [ (Gen.path 15, 0); (Gen.cycle 16, 0); (Gen.torus ~rows:5 ~cols:5, 0) ]

let test_agents_on_source_informed_at_zero () =
  let g = Gen.star ~leaves:8 in
  let r =
    Engine.visit_exchange (Rng.of_int 134) g ~source:0
      ~agents:(Placement.All_at (0, 5))
      ~max_rounds:10_000 ()
  in
  Alcotest.(check (option int)) "every agent at round 0" (Some 0)
    r.Run_result.all_agents_informed;
  Alcotest.(check int) "one source-to-agent contact each" 5
    (r.Run_result.contacts - (Graph.n g - 1))

let test_agent_informed_only_on_informed_vertex () =
  let g = Gen.torus ~rows:4 ~cols:4 in
  let r = run 135 g 0 in
  Alcotest.(check bool) "every agent informed" true
    (Option.is_some r.Run_result.all_agents_informed)

let test_all_agents_informed_at_broadcast () =
  let g = Gen.complete 16 in
  let result = run 136 g 0 in
  match result.Run_result.all_agents_informed with
  | None -> Alcotest.fail "agents never all informed"
  | Some r ->
      let bt = Run_result.time_exn result in
      Alcotest.(check bool) "agents done by broadcast round" true (r <= bt)

let test_single_agent_eventually_covers () =
  (* one agent on a small cycle: broadcast equals a cover-time-like quantity
     but must terminate *)
  let g = Gen.cycle 6 in
  let r =
    Engine.visit_exchange (Rng.of_int 137) g ~source:0 ~agents:(Placement.Stationary 1)
      ~max_rounds:1_000_000 ()
  in
  Alcotest.(check bool) "completed" true (Run_result.completed r)

let test_curve_monotone_and_bounded () =
  let g = Gen.complete 25 in
  let r = run 138 g 0 in
  let curve = r.Run_result.informed_curve in
  Alcotest.(check int) "starts at 1" 1 curve.(0);
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone";
    if curve.(i) > 25 then Alcotest.fail "curve exceeds n"
  done

let test_round_cap () =
  let g = Gen.path 100 in
  let r =
    Engine.visit_exchange (Rng.of_int 139) g ~source:0 ~agents:(Placement.Stationary 2)
      ~max_rounds:4 ()
  in
  Alcotest.(check (option int)) "capped" None r.Run_result.broadcast_time;
  Alcotest.(check int) "rounds" 4 r.Run_result.rounds_run

let test_lazy_walks_complete () =
  let g = Gen.star ~leaves:12 in
  let r = run ~lazy_walk:true 140 g 0 in
  Alcotest.(check bool) "completed with lazy walks" true (Run_result.completed r)

let test_deterministic_by_seed () =
  let g = Gen.torus ~rows:5 ~cols:5 in
  let r1 = run 141 g 0 and r2 = run 141 g 0 in
  Alcotest.(check (option int)) "same time" r1.Run_result.broadcast_time
    r2.Run_result.broadcast_time

let test_more_agents_not_slower_on_average () =
  let g = Gen.complete 64 in
  let mean agents seeds =
    let total = ref 0 in
    List.iter
      (fun s -> total := !total + Run_result.time_exn (run ~agents s g 0))
      seeds;
    float_of_int !total /. float_of_int (List.length seeds)
  in
  let seeds = List.init 10 (fun i -> 1420 + i) in
  let few = mean (Placement.Stationary 16) seeds in
  let many = mean (Placement.Stationary 256) seeds in
  Alcotest.(check bool)
    (Printf.sprintf "16 agents %.1f >= 256 agents %.1f" few many)
    true (few >= many)

let test_source_out_of_range () =
  try
    ignore (run 143 (Gen.complete 4) 9);
    Alcotest.fail "bad source accepted"
  with Invalid_argument _ -> ()

let prop_vertex_times_distance_bound =
  QCheck.Test.make ~count:15 ~name:"visitx vertex times dominate BFS distance"
    QCheck.(int_range 4 25)
    (fun half ->
      let n = 2 * half in
      let rng = Rng.of_int (n * 37) in
      let g = Rumor_graph.Gen_random.random_regular_connected rng ~n ~d:4 in
      let r, tau = run_tau rng g 0 ~max_rounds:100_000 in
      let dist = Algo.bfs_distances g 0 in
      let ok = ref true in
      Array.iteri (fun v tv -> if tv < dist.(v) then ok := false) tau;
      !ok && Run_result.completed r)

let suite =
  [
    Alcotest.test_case "completes on small graphs" `Quick test_completes_on_small_graphs;
    Alcotest.test_case "source informed at round 0" `Quick test_vertex_time_source_zero;
    Alcotest.test_case "vertex times respect distance" `Quick
      test_vertex_times_respect_distance;
    Alcotest.test_case "agents on source informed at 0" `Quick
      test_agents_on_source_informed_at_zero;
    Alcotest.test_case "agents eventually informed" `Quick
      test_agent_informed_only_on_informed_vertex;
    Alcotest.test_case "all agents done by broadcast" `Quick
      test_all_agents_informed_at_broadcast;
    Alcotest.test_case "single agent covers" `Quick test_single_agent_eventually_covers;
    Alcotest.test_case "curve monotone and bounded" `Quick test_curve_monotone_and_bounded;
    Alcotest.test_case "round cap" `Quick test_round_cap;
    Alcotest.test_case "lazy walks complete" `Quick test_lazy_walks_complete;
    Alcotest.test_case "deterministic by seed" `Quick test_deterministic_by_seed;
    Alcotest.test_case "more agents not slower" `Quick test_more_agents_not_slower_on_average;
    Alcotest.test_case "source out of range" `Quick test_source_out_of_range;
    QCheck_alcotest.to_alcotest prop_vertex_times_distance_bound;
  ]
