(* Tests for the combined kernel, Rumor_protocols.Engine.combined. *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Gen_paper = Rumor_graph.Gen_paper
module Placement = Rumor_agents.Placement
module Engine = Rumor_protocols.Engine
module Run_result = Rumor_protocols.Run_result

let run ?(max_rounds = 1_000_000) seed g source =
  Engine.combined (Rng.of_int seed) g ~source ~agents:(Placement.Linear 1.0) ~max_rounds ()

let test_completes_on_small_graphs () =
  List.iter
    (fun (g, s) ->
      Alcotest.(check bool) "completed" true (Run_result.completed (run 171 g s)))
    [ (Gen.complete 2, 0); (Gen.cycle 11, 0); (Gen.star ~leaves:9, 2) ]

let test_fast_on_double_star () =
  (* the component that defeats push-pull: combined must stay logarithmic *)
  let ds = Gen_paper.double_star ~leaves_per_star:256 in
  for seed = 0 to 4 do
    let r = run (1720 + seed) ds.Gen_paper.ds_graph ds.Gen_paper.ds_leaf_a in
    Alcotest.(check bool)
      (Printf.sprintf "double star time %d small" (Run_result.time_exn r))
      true
      (Run_result.time_exn r <= 40)
  done

let test_fast_on_heavy_tree () =
  (* the component that defeats visit-exchange *)
  let ht = Gen_paper.heavy_binary_tree ~levels:9 in
  for seed = 0 to 4 do
    let r = run (1730 + seed) ht.Gen_paper.ht_graph ht.Gen_paper.ht_first_leaf in
    Alcotest.(check bool)
      (Printf.sprintf "heavy tree time %d small" (Run_result.time_exn r))
      true
      (Run_result.time_exn r <= 60)
  done

let test_curve_monotone () =
  let r = run 172 (Gen.torus ~rows:5 ~cols:5) 0 in
  let curve = r.Run_result.informed_curve in
  Alcotest.(check int) "starts at 1" 1 curve.(0);
  Alcotest.(check int) "ends at n" 25 curve.(Array.length curve - 1);
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

let test_round_cap () =
  let r = run ~max_rounds:2 173 (Gen.path 100) 0 in
  Alcotest.(check (option int)) "capped" None r.Run_result.broadcast_time

let test_source_out_of_range () =
  try
    ignore (run 174 (Gen.complete 3) 8);
    Alcotest.fail "bad source accepted"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "completes on small graphs" `Quick test_completes_on_small_graphs;
    Alcotest.test_case "fast on double star" `Quick test_fast_on_double_star;
    Alcotest.test_case "fast on heavy tree" `Quick test_fast_on_heavy_tree;
    Alcotest.test_case "curve monotone" `Quick test_curve_monotone;
    Alcotest.test_case "round cap" `Quick test_round_cap;
    Alcotest.test_case "source out of range" `Quick test_source_out_of_range;
  ]
