(* Tests for the push-pull kernel, Rumor_protocols.Engine.push_pull. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Algo = Rumor_graph.Algo
module Engine = Rumor_protocols.Engine
module Run_result = Rumor_protocols.Run_result

let run seed g source =
  Engine.push_pull (Rng.of_int seed) g ~source ~max_rounds:1_000_000 ()

let test_k2_exact () =
  let r = run 121 (Gen.complete 2) 0 in
  Alcotest.(check (option int)) "one round" (Some 1) r.Run_result.broadcast_time

let test_star_from_center_one_round () =
  (* every leaf pulls from the center in round 1 *)
  let g = Gen.star ~leaves:30 in
  for seed = 0 to 9 do
    let r = run (1210 + seed) g 0 in
    Alcotest.(check (option int)) "one round from center" (Some 1)
      r.Run_result.broadcast_time
  done

let test_star_from_leaf_two_rounds () =
  (* Lemma 2(b): at most 2 rounds from a leaf *)
  let g = Gen.star ~leaves:30 in
  for seed = 0 to 9 do
    let r = run (1220 + seed) g 3 in
    Alcotest.(check bool) "at most 2 rounds" true (Run_result.time_exn r <= 2)
  done

let test_contacts_are_n_per_round () =
  let g = Gen.complete 20 in
  let r = run 122 g 0 in
  Alcotest.(check int) "n contacts per round" (20 * r.Run_result.rounds_run)
    r.Run_result.contacts

let test_time_at_least_eccentricity () =
  List.iter
    (fun (g, s) ->
      let r = run 123 g s in
      Alcotest.(check bool) "T >= ecc" true
        (Run_result.time_exn r >= Algo.eccentricity g s))
    [ (Gen.path 25, 0); (Gen.cycle 20, 0); (Gen.complete_binary_tree ~levels:5, 0) ]

let test_curve_monotone () =
  let g = Gen.torus ~rows:6 ~cols:6 in
  let r = run 124 g 0 in
  let curve = r.Run_result.informed_curve in
  Alcotest.(check int) "starts at 1" 1 curve.(0);
  Alcotest.(check int) "ends at n" 36 curve.(Array.length curve - 1);
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

let test_round_cap () =
  let g = Gen.path 200 in
  let r = Engine.push_pull (Rng.of_int 125) g ~source:0 ~max_rounds:3 () in
  Alcotest.(check (option int)) "capped" None r.Run_result.broadcast_time;
  Alcotest.(check int) "rounds" 3 r.Run_result.rounds_run

let test_faster_than_push_on_star () =
  (* push-pull needs O(1) rounds on the star, push needs Omega(n log n) *)
  let g = Gen.star ~leaves:128 in
  let pp = Run_result.time_exn (run 126 g 0) in
  let p =
    Run_result.time_exn
      (Rumor_protocols.Engine.push (Rng.of_int 126) g ~source:0 ~max_rounds:1_000_000 ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "push-pull %d << push %d" pp p)
    true
    (pp * 20 < p)

let test_no_isolated_exchange_inflation () =
  (* a vertex must not be counted informed twice: final curve value is n *)
  let g = Gen.complete 10 in
  let r = run 127 g 0 in
  let curve = r.Run_result.informed_curve in
  Alcotest.(check int) "exactly n at the end" 10 curve.(Array.length curve - 1)

let prop_completes_and_bounded_by_push =
  QCheck.Test.make ~count:15 ~name:"push-pull completes on random regular graphs"
    QCheck.(int_range 5 30)
    (fun half ->
      let n = 2 * half in
      let rng = Rng.of_int (n * 31) in
      let g = Rumor_graph.Gen_random.random_regular_connected rng ~n ~d:4 in
      let r = Engine.push_pull rng g ~source:0 ~max_rounds:100_000 () in
      Run_result.completed r)

let suite =
  [
    Alcotest.test_case "K2 exact" `Quick test_k2_exact;
    Alcotest.test_case "star from center: 1 round" `Quick test_star_from_center_one_round;
    Alcotest.test_case "star from leaf: <= 2 rounds" `Quick test_star_from_leaf_two_rounds;
    Alcotest.test_case "contacts = n per round" `Quick test_contacts_are_n_per_round;
    Alcotest.test_case "time >= eccentricity" `Quick test_time_at_least_eccentricity;
    Alcotest.test_case "curve monotone" `Quick test_curve_monotone;
    Alcotest.test_case "round cap" `Quick test_round_cap;
    Alcotest.test_case "beats push on the star" `Quick test_faster_than_push_on_star;
    Alcotest.test_case "no double counting" `Quick test_no_isolated_exchange_inflation;
    QCheck_alcotest.to_alcotest prop_completes_and_bounded_by_push;
  ]
