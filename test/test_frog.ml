(* Tests for Rumor_protocols.Frog. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Frog = Rumor_protocols.Frog
module Run_result = Rumor_protocols.Run_result

let run ?frogs_per_vertex ?(max_rounds = 1_000_000) seed g source =
  Frog.run ?frogs_per_vertex (Rng.of_int seed) g ~source ~max_rounds ()

let test_completes () =
  List.iter
    (fun (g, s) ->
      let r = run 431 g s in
      Alcotest.(check bool) "completed" true (Run_result.completed r.Frog.run_result))
    [ (Gen.complete 16, 0); (Gen.cycle 12, 3); (Gen.star ~leaves:10, 0); (Gen.torus ~rows:4 ~cols:4, 0) ]

let test_awake_curve_monotone_and_final () =
  let g = Gen.complete 12 in
  let r = run 432 g 0 in
  let awake = r.Frog.awake_curve in
  Alcotest.(check int) "one frog awake initially" 1 awake.(0);
  for i = 1 to Array.length awake - 1 do
    if awake.(i) < awake.(i - 1) then Alcotest.fail "awake curve not monotone"
  done;
  (* completion = all vertices visited = all frogs awake *)
  Alcotest.(check int) "all awake at the end" 12 awake.(Array.length awake - 1)

let test_multiple_frogs_per_vertex () =
  let g = Gen.cycle 10 in
  let r = run ~frogs_per_vertex:3 433 g 0 in
  let awake = r.Frog.awake_curve in
  Alcotest.(check int) "three awake at source" 3 awake.(0);
  Alcotest.(check int) "all 30 awake at the end" 30 awake.(Array.length awake - 1)

let test_wakes_propagate_one_hop_per_round () =
  (* frogs travel along edges: vertex visit times respect BFS distance *)
  let g = Gen.path 12 in
  let r = run 434 g 0 in
  let curve = r.Frog.run_result.Run_result.informed_curve in
  (* on a path from the end, at most one new vertex can be reached per
     round by the frontmost frog *)
  for i = 1 to Array.length curve - 1 do
    if curve.(i) > curve.(i - 1) + 1 then Alcotest.fail "jumped more than one hop"
  done

let test_slower_than_visitx_on_cycle () =
  (* with only the woken frogs moving, early progress is single-walk slow;
     the all-agents-moving visit-exchange dominates it on the cycle *)
  let g = Gen.cycle 24 in
  let mean_frog =
    let total = ref 0 in
    for seed = 0 to 9 do
      total := !total + Run_result.time_exn (run (4350 + seed) g 0).Frog.run_result
    done;
    float_of_int !total /. 10.0
  in
  let mean_vx =
    let total = ref 0 in
    for seed = 0 to 9 do
      let r =
        Rumor_protocols.Engine.visit_exchange (Rng.of_int (4360 + seed)) g ~source:0
          ~agents:Rumor_agents.Placement.One_per_vertex ~max_rounds:1_000_000 ()
      in
      total := !total + Run_result.time_exn r
    done;
    float_of_int !total /. 10.0
  in
  (* the two processes are close on the cycle (frogs wake contiguously);
     the invariant that must hold is that sleeping frogs cannot help, so
     the frog model is never substantially faster *)
  Alcotest.(check bool)
    (Printf.sprintf "frog %.0f not much faster than visitx %.0f" mean_frog mean_vx)
    true
    (mean_frog >= 0.7 *. mean_vx)

let test_deterministic_by_seed () =
  let g = Gen.torus ~rows:4 ~cols:4 in
  let r1 = run 436 g 0 and r2 = run 436 g 0 in
  Alcotest.(check (option int)) "same time" r1.Frog.run_result.Run_result.broadcast_time
    r2.Frog.run_result.Run_result.broadcast_time

let test_invalid () =
  (try
     ignore (run ~frogs_per_vertex:0 437 (Gen.complete 3) 0);
     Alcotest.fail "zero frogs accepted"
   with Invalid_argument _ -> ());
  try
    ignore (run 438 (Gen.complete 3) 7);
    Alcotest.fail "bad source accepted"
  with Invalid_argument _ -> ()

let test_round_cap () =
  let r = run ~max_rounds:2 439 (Gen.path 40) 0 in
  Alcotest.(check (option int)) "capped" None r.Frog.run_result.Run_result.broadcast_time

let suite =
  [
    Alcotest.test_case "completes" `Quick test_completes;
    Alcotest.test_case "awake curve" `Quick test_awake_curve_monotone_and_final;
    Alcotest.test_case "multiple frogs per vertex" `Quick test_multiple_frogs_per_vertex;
    Alcotest.test_case "one hop per round" `Quick test_wakes_propagate_one_hop_per_round;
    Alcotest.test_case "dominated by visit-exchange on the cycle" `Quick
      test_slower_than_visitx_on_cycle;
    Alcotest.test_case "deterministic by seed" `Quick test_deterministic_by_seed;
    Alcotest.test_case "invalid arguments" `Quick test_invalid;
    Alcotest.test_case "round cap" `Quick test_round_cap;
  ]
