(* Tests for continuous-time meet-exchange (the [33, 34] variant, run by
   Rumor_protocols.Async_engine.meet_exchange). *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Placement = Rumor_agents.Placement
module Amx = Rumor_protocols.Async_meet_exchange

let run ?(agents = Placement.Linear 1.0) ?(max_time = 1e6) seed g source =
  Rumor_protocols.Async_engine.meet_exchange (Rng.of_int seed) g ~source ~agents
    ~max_time

let test_completes_on_small_graphs () =
  List.iter
    (fun (g, s) ->
      let r = run 481 g s in
      Alcotest.(check bool) "completed" true (r.Amx.broadcast_time <> None);
      Alcotest.(check int) "all informed" r.Amx.agents r.Amx.informed)
    [ (Gen.complete 16, 0); (Gen.cycle 9, 2); (Gen.torus ~rows:4 ~cols:4, 0) ]

let test_no_parity_trap_on_k2 () =
  (* two agents, one per vertex of K2: the synchronous non-lazy process
     never finishes (they swap in lockstep); continuous time breaks the
     symmetry and they meet in O(1) expected time *)
  let g = Gen.complete 2 in
  for seed = 0 to 9 do
    let r = run ~agents:Placement.One_per_vertex (4820 + seed) g 0 in
    match r.Amx.broadcast_time with
    | None -> Alcotest.fail "continuous meetx stalled on K2"
    | Some t -> Alcotest.(check bool) "fast" true (t < 100.0)
  done

let test_no_parity_trap_on_star () =
  let g = Gen.star ~leaves:16 in
  let r = run 483 g 0 in
  Alcotest.(check bool) "completes without laziness" true (r.Amx.broadcast_time <> None)

let test_agents_on_source_start_informed () =
  let g = Gen.complete 8 in
  let r = run ~agents:(Placement.All_at (0, 5)) 484 g 0 in
  (match r.Amx.broadcast_time with
  | Some t -> Alcotest.(check (float 1e-9)) "instant broadcast" 0.0 t
  | None -> Alcotest.fail "did not complete");
  Alcotest.(check int) "all five informed" 5 r.Amx.informed

let test_time_cap () =
  let g = Gen.path 100 in
  let r = run ~agents:(Placement.Stationary 2) ~max_time:0.5 485 g 0 in
  Alcotest.(check bool) "capped" true (r.Amx.broadcast_time = None)

let test_deterministic_by_seed () =
  let g = Gen.complete 12 in
  let r1 = run 486 g 0 and r2 = run 486 g 0 in
  Alcotest.(check bool) "same time" true (r1.Amx.broadcast_time = r2.Amx.broadcast_time);
  Alcotest.(check int) "same rings" r1.Amx.rings r2.Amx.rings

let test_comparable_to_discrete_on_clique () =
  (* on a non-bipartite dense graph the continuous and (non-lazy) discrete
     processes should take similar times *)
  let g = Gen.complete 64 in
  let mean_cont =
    let total = ref 0.0 in
    for seed = 0 to 9 do
      match (run (4870 + seed) g 0).Amx.broadcast_time with
      | Some t -> total := !total +. t
      | None -> Alcotest.fail "capped"
    done;
    !total /. 10.0
  in
  let mean_disc =
    let total = ref 0 in
    for seed = 0 to 9 do
      let r =
        Rumor_protocols.Engine.meet_exchange ~lazy_walk:false (Rng.of_int (4880 + seed)) g
          ~source:0 ~agents:(Placement.Linear 1.0) ~max_rounds:100_000 ()
      in
      total := !total + Rumor_protocols.Run_result.time_exn r
    done;
    float_of_int !total /. 10.0
  in
  let ratio = mean_cont /. mean_disc in
  Alcotest.(check bool)
    (Printf.sprintf "continuous %.1f vs discrete %.1f within 3x" mean_cont mean_disc)
    true
    (ratio > 0.33 && ratio < 3.0)

let test_invalid () =
  let g = Gen.complete 4 in
  (try
     ignore (run 488 g 9);
     Alcotest.fail "bad source accepted"
   with Invalid_argument _ -> ());
  try
    ignore (run ~max_time:0.0 489 g 0);
    Alcotest.fail "zero max_time accepted"
  with Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "completes on small graphs" `Quick test_completes_on_small_graphs;
    Alcotest.test_case "no parity trap on K2" `Quick test_no_parity_trap_on_k2;
    Alcotest.test_case "no parity trap on the star" `Quick test_no_parity_trap_on_star;
    Alcotest.test_case "agents on source start informed" `Quick
      test_agents_on_source_start_informed;
    Alcotest.test_case "time cap" `Quick test_time_cap;
    Alcotest.test_case "deterministic by seed" `Quick test_deterministic_by_seed;
    Alcotest.test_case "comparable to discrete on the clique" `Quick
      test_comparable_to_discrete_on_clique;
    Alcotest.test_case "invalid arguments" `Quick test_invalid;
  ]
