(* Cross-protocol invariants, checked uniformly through the dispatch layer:
   every information-spreading process in the library must satisfy the
   structural properties that hold for it by construction, on randomly
   sampled graphs. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Algo = Rumor_graph.Algo
module Protocol = Rumor_sim.Protocol
module Run_result = Rumor_protocols.Run_result

let all_specs =
  [
    Protocol.push;
    Protocol.push_pull;
    Protocol.visit_exchange ();
    Protocol.meet_exchange ();
    Protocol.combined ();
  ]

(* processes whose information provably travels at most one hop per round
   from the source, so broadcast time dominates eccentricity *)
let hop_limited =
  [
    Protocol.push;
    Protocol.push_pull;
    Protocol.visit_exchange ();
    Protocol.combined ();
  ]

let sample_graph seed =
  let rng = Rng.of_int seed in
  Rumor_graph.Gen_random.random_regular_connected rng ~n:64 ~d:4

let test_all_complete_on_random_regular () =
  for seed = 0 to 2 do
    let g = sample_graph (500 + seed) in
    List.iter
      (fun spec ->
        let r =
          Protocol.run spec (Rng.of_int (5000 + seed)) g ~source:0
            ~max_rounds:1_000_000
        in
        Alcotest.(check bool) (Protocol.name spec ^ " completes") true
          (Run_result.completed r))
      all_specs
  done

let test_time_dominates_eccentricity () =
  for seed = 0 to 2 do
    let g = sample_graph (510 + seed) in
    let ecc = Algo.eccentricity g 0 in
    List.iter
      (fun spec ->
        let r =
          Protocol.run spec (Rng.of_int (5100 + seed)) g ~source:0
            ~max_rounds:1_000_000
        in
        let t = Run_result.time_exn r in
        if t < ecc then
          Alcotest.failf "%s: time %d below eccentricity %d" (Protocol.name spec) t ecc)
      hop_limited
  done

let test_curves_monotone_and_complete () =
  let g = sample_graph 520 in
  List.iter
    (fun spec ->
      let r = Protocol.run spec (Rng.of_int 5200) g ~source:0 ~max_rounds:1_000_000 in
      let curve = r.Run_result.informed_curve in
      (* meet-exchange counts informed agents and may start at 0 when no
         agent was placed on the source; everything else starts at 1 *)
      let floor = if Protocol.name spec = "meet-exchange" then 0 else 1 in
      Alcotest.(check bool)
        (Protocol.name spec ^ " curve starts high enough")
        true
        (curve.(0) >= floor);
      for i = 1 to Array.length curve - 1 do
        if curve.(i) < curve.(i - 1) then
          Alcotest.failf "%s: curve decreases at %d" (Protocol.name spec) i
      done)
    all_specs

let test_deterministic_by_seed_everywhere () =
  let g = sample_graph 530 in
  List.iter
    (fun spec ->
      let run () =
        Protocol.run spec (Rng.of_int 5300) g ~source:0 ~max_rounds:1_000_000
      in
      let r1 = run () and r2 = run () in
      Alcotest.(check (option int))
        (Protocol.name spec ^ " deterministic")
        r1.Run_result.broadcast_time r2.Run_result.broadcast_time;
      Alcotest.(check int)
        (Protocol.name spec ^ " same contacts")
        r1.Run_result.contacts r2.Run_result.contacts)
    all_specs

let test_caps_respected_everywhere () =
  let g = Rumor_graph.Gen_basic.path 200 in
  List.iter
    (fun spec ->
      let r = Protocol.run spec (Rng.of_int 5400) g ~source:0 ~max_rounds:2 in
      Alcotest.(check bool) (Protocol.name spec ^ " capped") true
        (r.Run_result.broadcast_time = None && r.Run_result.rounds_run <= 2))
    (* meet-exchange on the path needs lazy walks; it is still capped *)
    all_specs

let test_push_curve_at_most_doubles () =
  (* in push, only previously informed vertices send, one message each *)
  let g = sample_graph 550 in
  let r = Protocol.run Protocol.push (Rng.of_int 5500) g ~source:0 ~max_rounds:10_000 in
  let curve = r.Run_result.informed_curve in
  for i = 1 to Array.length curve - 1 do
    if curve.(i) > 2 * curve.(i - 1) then Alcotest.fail "push curve more than doubled"
  done

let test_traffic_dispatch () =
  (* traffic rides on the instrument through the dispatcher: one use per
     call for the vertex protocols, one per edge crossed (lazy stays
     excluded) for the walker protocols *)
  let module Traffic = Rumor_protocols.Traffic in
  let g = sample_graph 560 in
  let run spec obs =
    Protocol.run ~obs spec (Rng.of_int 5600) g ~source:0 ~max_rounds:10_000
  in
  List.iter
    (fun spec ->
      let traffic = Traffic.create g in
      let r = run spec (Traffic.calls traffic) in
      Alcotest.(check int) (Protocol.name spec ^ ": one use per call")
        r.Run_result.contacts (Traffic.total traffic))
    [ Protocol.push; Protocol.push_pull ];
  List.iter
    (fun spec ->
      let traffic = Traffic.create g in
      let steps = ref 0 in
      let moved =
        Rumor_obs.Instrument.make
          ~on_walker_move:(fun ~agent:_ ~from_ ~to_ ->
            if from_ <> to_ then incr steps)
          ()
      in
      let (_ : Run_result.t) =
        run spec (Rumor_obs.Instrument.pair moved (Traffic.steps traffic))
      in
      Alcotest.(check bool) (Protocol.name spec ^ ": walkers moved") true
        (!steps > 0);
      Alcotest.(check int) (Protocol.name spec ^ ": one use per step") !steps
        (Traffic.total traffic))
    [
      Protocol.visit_exchange ();
      Protocol.meet_exchange ();
      Protocol.Meet_exchange
        { agents = Rumor_agents.Placement.Linear 1.0;
          laziness = Protocol.Lazy_on };
    ]

let prop_all_protocols_complete =
  QCheck.Test.make ~count:8 ~name:"every protocol completes on random instances"
    QCheck.(int_range 8 24)
    (fun half ->
      let n = 2 * half in
      let rng = Rng.of_int (n * 73) in
      let g = Rumor_graph.Gen_random.random_regular_connected rng ~n ~d:4 in
      List.for_all
        (fun spec ->
          Run_result.completed
            (Protocol.run spec rng g ~source:0 ~max_rounds:1_000_000))
        all_specs)

let suite =
  [
    Alcotest.test_case "all protocols complete" `Quick test_all_complete_on_random_regular;
    Alcotest.test_case "time dominates eccentricity" `Quick test_time_dominates_eccentricity;
    Alcotest.test_case "curves monotone" `Quick test_curves_monotone_and_complete;
    Alcotest.test_case "deterministic by seed" `Quick test_deterministic_by_seed_everywhere;
    Alcotest.test_case "round caps respected" `Quick test_caps_respected_everywhere;
    Alcotest.test_case "push curve at most doubles" `Quick test_push_curve_at_most_doubles;
    Alcotest.test_case "traffic through dispatch" `Quick test_traffic_dispatch;
    QCheck_alcotest.to_alcotest prop_all_protocols_complete;
  ]
