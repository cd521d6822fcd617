(* Tests of the agents' random walk as the dense walker kernels
   (Engine.visit_exchange, Engine.meet_exchange, Engine.combined) run it,
   observed through the on_walker_move hook: every step follows an edge of
   the graph, a non-lazy walk never stays, a lazy one stays half the time,
   every agent moves once per round in agent order, the neighbour is
   uniform, and the walk starts from Placement.place on the caller's
   stream. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Placement = Rumor_agents.Placement
module Engine = Rumor_protocols.Engine
module Run_result = Rumor_protocols.Run_result
module Instrument = Rumor_obs.Instrument

(* the three dense walker kernels, under one signature whose optional
   arguments are passed as options *)
let kernels =
  [
    ( "visit-exchange",
      fun ~obs ~lazy_walk rng g ~source ~agents ~max_rounds ->
        Engine.visit_exchange ?obs ?lazy_walk rng g ~source ~agents ~max_rounds () );
    ( "meet-exchange",
      fun ~obs ~lazy_walk rng g ~source ~agents ~max_rounds ->
        Engine.meet_exchange ?obs ?lazy_walk rng g ~source ~agents ~max_rounds () );
    ( "combined",
      fun ~obs ~lazy_walk rng g ~source ~agents ~max_rounds ->
        Engine.combined ?obs ?lazy_walk rng g ~source ~agents ~max_rounds () );
  ]

(* [walk kernel ?lazy_walk ?source seed g agents ~max_rounds on_move] runs
   [kernel] from [source] (default 0) with [on_move round agent from to] on
   every walker step *)
let walk kernel ?lazy_walk ?(source = 0) seed g agents ~max_rounds on_move =
  let round = ref 0 in
  let obs =
    Instrument.make
      ~on_round_start:(fun r -> round := r)
      ~on_walker_move:(fun ~agent ~from_ ~to_ -> on_move !round agent from_ to_)
      ()
  in
  kernel ~obs:(Some obs) ~lazy_walk (Rng.of_int seed) g ~source ~agents ~max_rounds

let test_moves_follow_edges kernel () =
  let g = Gen.cycle 64 in
  let agents = Placement.Stationary 6 in
  let pos = Placement.place (Rng.of_int 82) agents g in
  let moves = ref 0 in
  let r =
    walk kernel ~lazy_walk:false 82 g agents ~max_rounds:50 (fun _ a u v ->
        incr moves;
        if u <> pos.(a) then
          Alcotest.failf "agent %d left %d but stood on %d" a u pos.(a);
        if not (Graph.mem_edge g u v) then
          Alcotest.failf "agent %d moved %d -> %d, not an edge" a u v;
        pos.(a) <- v)
  in
  Alcotest.(check bool) "walkers moved" true (!moves > 0);
  Alcotest.(check int) "one move per agent per round"
    (6 * r.Run_result.rounds_run) !moves

let test_non_lazy_always_moves () =
  (* on a cycle a non-lazy walk can never stay (no self-loops); the
     bipartite cycle also stalls non-lazy meet-exchange, so it runs to
     the cap *)
  let g = Gen.cycle 10 in
  List.iter
    (fun (name, kernel) ->
      let moves = ref 0 in
      let (_ : Run_result.t) =
        walk kernel ~lazy_walk:false 86 g Placement.One_per_vertex ~max_rounds:50
          (fun _ a u v ->
            incr moves;
            if u = v then Alcotest.failf "%s: agent %d stayed put" name a)
      in
      Alcotest.(check bool) (name ^ ": walkers moved") true (!moves > 0))
    kernels

let test_lazy_walk_stays_half kernel () =
  let g = Gen.cycle 200 in
  let stays = ref 0 and moves = ref 0 in
  let (_ : Run_result.t) =
    walk kernel ~lazy_walk:true 85 g (Placement.Stationary 20) ~max_rounds:200
      (fun _ _ u v -> if u = v then incr stays else incr moves)
  in
  let total = !stays + !moves in
  Alcotest.(check bool) (Printf.sprintf "%d steps" total) true (total >= 1_000);
  let stay_rate = float_of_int !stays /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "stay rate %.3f near 0.5" stay_rate)
    true
    (Float.abs (stay_rate -. 0.5) < 0.05)

let test_agent_order kernel () =
  (* every agent moves exactly once per round, in agent-index order *)
  let g = Gen.torus ~rows:6 ~cols:6 in
  let next = ref 0 and current = ref 0 and rounds = ref 0 in
  let r =
    walk kernel 90 g (Placement.Stationary 25) ~max_rounds:5 (fun round a _ _ ->
        if round <> !current then begin
          Alcotest.(check int) "one call per agent" (if !current = 0 then 0 else 25)
            !next;
          Alcotest.(check int) "rounds in order" (!current + 1) round;
          current := round;
          incr rounds;
          next := 0
        end;
        Alcotest.(check int) "agent order" !next a;
        incr next)
  in
  Alcotest.(check int) "last round: one call per agent" 25 !next;
  Alcotest.(check int) "walked every round run" r.Run_result.rounds_run !rounds

let test_uniform_neighbour () =
  (* 20000 agents on the centre of a 4-leaf star: the first step sends each
     to a leaf with probability 1/4.  The source is a leaf, so
     meet-exchange does not finish at round 0 with every agent informed. *)
  let g = Gen.star ~leaves:4 in
  let trials = 20_000 in
  List.iter
    (fun (name, kernel) ->
      let counts = Array.make 5 0 in
      let (_ : Run_result.t) =
        walk kernel ~lazy_walk:false ~source:1 88 g
          (Placement.All_at (0, trials))
          ~max_rounds:1
          (fun _ _ _ v -> counts.(v) <- counts.(v) + 1)
      in
      Alcotest.(check int) (name ^ ": nobody stays on the centre") 0 counts.(0);
      for leaf = 1 to 4 do
        let p = float_of_int counts.(leaf) /. float_of_int trials in
        if Float.abs (p -. 0.25) > 0.02 then
          Alcotest.failf "%s: leaf %d rate %.3f" name leaf p
      done)
    kernels

let test_starts_from_placement kernel () =
  (* the kernel places its agents first, on the caller's stream, so the
     first round's departures are Placement.place on the same seed *)
  let g = Gen.lollipop ~clique_size:6 ~tail_len:10 in
  let agents = Placement.Stationary 40 in
  let want = Placement.place (Rng.of_int 91) agents g in
  let got = Array.make 40 (-1) in
  let (_ : Run_result.t) =
    walk kernel 91 g agents ~max_rounds:1 (fun _ a u _ -> got.(a) <- u)
  in
  Alcotest.(check (array int)) "first departures" want got

let test_rejects_isolated_start () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  List.iter
    (fun (name, who) ->
      let kernel = List.assoc name kernels in
      Alcotest.check_raises name
        (Invalid_argument (who ^ ": agent on isolated vertex"))
        (fun () ->
          ignore
            (kernel ~obs:None ~lazy_walk:None (Rng.of_int 89) g ~source:0
               ~agents:(Placement.All_at (2, 1)) ~max_rounds:10)))
    [
      ("visit-exchange", "Engine.visit_exchange");
      ("meet-exchange", "Engine.meet_exchange");
      ("combined", "Engine.combined");
    ]

let per_kernel label test =
  List.map
    (fun (name, kernel) ->
      Alcotest.test_case (name ^ ": " ^ label) `Quick (test kernel))
    kernels

let suite =
  per_kernel "moves follow edges" test_moves_follow_edges
  @ [ Alcotest.test_case "non-lazy always moves" `Quick test_non_lazy_always_moves ]
  @ per_kernel "lazy walk stays ~half the time" test_lazy_walk_stays_half
  @ per_kernel "one move per agent, in agent order" test_agent_order
  @ [ Alcotest.test_case "uniform neighbour choice" `Quick test_uniform_neighbour ]
  @ per_kernel "walk starts from Placement.place" test_starts_from_placement
  @ [ Alcotest.test_case "rejects isolated start" `Quick test_rejects_isolated_start ]
