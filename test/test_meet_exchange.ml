(* Tests for the meet-exchange kernel, Rumor_protocols.Engine.meet_exchange. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Placement = Rumor_agents.Placement
module Engine = Rumor_protocols.Engine
module Run_result = Rumor_protocols.Run_result

(* the run plus each agent's informing round, in placement order *)
let run_tau ?lazy_walk seed g ~source ~agents ~max_rounds =
  let tau = Array.make (Placement.count agents g) 0 in
  let r =
    Engine.meet_exchange ?lazy_walk ~tau (Rng.of_int seed) g ~source ~agents
      ~max_rounds ()
  in
  (r, tau)

let test_agents_at_source_informed_at_zero () =
  let g = Gen.complete 8 in
  let r, tau =
    run_tau 151 g ~source:2 ~agents:(Placement.All_at (2, 4)) ~max_rounds:10_000
  in
  Array.iter (fun t -> Alcotest.(check int) "informed at 0" 0 t) tau;
  Alcotest.(check (option int)) "broadcast at 0" (Some 0) r.Run_result.broadcast_time

let test_first_visitor_picks_up () =
  (* all agents start away from the source, so the pickup happens at >= 1 *)
  let g = Gen.complete 8 in
  let r, tau =
    run_tau 152 g ~source:0 ~agents:(Placement.All_at (3, 5)) ~max_rounds:10_000
  in
  Alcotest.(check bool) "rumor picked up" true (Run_result.completed r);
  (* the earliest informing round is the source's hand-off *)
  Alcotest.(check bool) "pickup after round 0" true (Array.fold_left min max_int tau >= 1)

let test_completes_on_non_bipartite () =
  List.iter
    (fun (g, s) ->
      let r =
        Engine.meet_exchange (Rng.of_int 153) g ~source:s ~agents:(Placement.Linear 1.0)
          ~max_rounds:1_000_000 ()
      in
      Alcotest.(check bool) "completed" true (Run_result.completed r))
    [ (Gen.complete 16, 0); (Gen.cycle 9, 2); (Gen.lollipop ~clique_size:5 ~tail_len:3, 0) ]

let test_bipartite_non_lazy_can_stall () =
  (* on K2 with one agent per vertex and non-lazy walks, the two agents swap
     forever and never meet *)
  let g = Gen.complete 2 in
  let r =
    Engine.meet_exchange ~lazy_walk:false (Rng.of_int 154) g ~source:0
      ~agents:Placement.One_per_vertex ~max_rounds:1000 ()
  in
  Alcotest.(check (option int)) "never completes" None r.Run_result.broadcast_time

let test_bipartite_lazy_completes () =
  let g = Gen.complete 2 in
  let r =
    Engine.meet_exchange ~lazy_walk:true (Rng.of_int 155) g ~source:0 ~agents:Placement.One_per_vertex
      ~max_rounds:100_000 ()
  in
  Alcotest.(check bool) "lazy walks complete" true (Run_result.completed r)

let test_default_lazy_detects_bipartite () =
  (* the star is bipartite; an omitted lazy_walk must choose lazy walks and
     complete *)
  let g = Gen.star ~leaves:16 in
  let r =
    Engine.meet_exchange (Rng.of_int 156) g ~source:0 ~agents:(Placement.Linear 1.0)
      ~max_rounds:100_000 ()
  in
  Alcotest.(check bool) "completed via auto-lazy" true (Run_result.completed r)

let test_curve_counts_agents () =
  let g = Gen.complete 12 in
  let agents = 20 in
  let r =
    Engine.meet_exchange (Rng.of_int 157) g ~source:0
      ~agents:(Placement.Stationary agents) ~max_rounds:100_000 ()
  in
  let curve = r.Run_result.informed_curve in
  Alcotest.(check int) "final curve = all agents" agents
    curve.(Array.length curve - 1);
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

let test_meeting_requires_prior_round_information () =
  (* agents informed in the same round they meet do not chain within the
     round; equivalently no agent's informing round can be smaller than the
     minimum co-location round with an already-informed agent.  We check
     the weaker but deterministic invariant: every agent's round is
     finite. *)
  let g = Gen.complete 10 in
  let _, tau =
    run_tau 159 g ~source:0 ~agents:(Placement.Stationary 15) ~max_rounds:100_000
  in
  Array.iter (fun t -> if t = max_int then Alcotest.fail "uninformed agent") tau

let test_round_cap () =
  let g = Gen.cycle 15 in
  let r =
    Engine.meet_exchange (Rng.of_int 160) g ~source:0 ~agents:(Placement.Stationary 2) ~max_rounds:2 ()
  in
  Alcotest.(check int) "rounds" 2 r.Run_result.rounds_run

let test_all_agents_equals_broadcast () =
  let g = Gen.complete 9 in
  let r =
    Engine.meet_exchange (Rng.of_int 161) g ~source:0 ~agents:(Placement.Stationary 12)
      ~max_rounds:100_000 ()
  in
  Alcotest.(check (option int)) "all_agents_informed mirrors broadcast"
    r.Run_result.broadcast_time r.Run_result.all_agents_informed

(* dense runs that meet often: many agents on small graphs, lazy and not *)
let dense_cases =
  [
    ("complete30 k=60", Gen.complete 30, Placement.Stationary 60, false);
    ("torus8x8 one-per-vertex", Gen.torus ~rows:8 ~cols:8, Placement.One_per_vertex, true);
    ("cycle21 k=40", Gen.cycle 21, Placement.Stationary 40, false);
    ("star12 all-at-leaf", Gen.star ~leaves:12, Placement.All_at (3, 9), true);
  ]

let test_obs_run_equals_bare_run () =
  List.iter
    (fun (label, g, agents, lazy_walk) ->
      List.iter
        (fun seed ->
          let run obs =
            let tau = Array.make (Placement.count agents g) 0 in
            let r =
              Engine.meet_exchange ?obs ~lazy_walk ~tau (Rng.of_int seed) g ~source:0
                ~agents ~max_rounds:100_000 ()
            in
            (r, tau)
          in
          let rec_ = Rumor_obs.Instrument.Recorder.create () in
          let r_obs, tau_obs =
            run (Some (Rumor_obs.Instrument.Recorder.instrument rec_))
          in
          let r_bare, tau_bare = run None in
          let name = Printf.sprintf "%s seed=%d" label seed in
          Alcotest.(check bool) (name ^ ": same result") true (r_obs = r_bare);
          Alcotest.(check (array int)) (name ^ ": same tau") tau_bare tau_obs;
          Alcotest.(check int) (name ^ ": one contact event per contact")
            r_bare.Run_result.contacts
            (Rumor_obs.Instrument.Recorder.contacts rec_))
        [ 1; 2; 3 ])
    dense_cases

(* Each round's contacts come in (vertex, agent) order, and each names an
   agent standing on that vertex and informed in that round. *)
let test_meetings_in_vertex_agent_order () =
  List.iter
    (fun (label, g, agents, lazy_walk) ->
      List.iter
        (fun seed ->
          let k = Placement.count agents g in
          (* positions are only known once the first round's walk reports
             them; round 0's contacts are at the source, vertex 1 *)
          let pos = Array.make k (-1) in
          let round = ref 0 and prev = ref (-1, -1) and meetings = ref 0 in
          let tau = Array.make k 0 in
          let contacts = ref [] in
          let obs =
            Rumor_obs.Instrument.make
              ~on_round_start:(fun r ->
                round := r;
                prev := (-1, -1))
              ~on_walker_move:(fun ~agent ~from_:_ ~to_ -> pos.(agent) <- to_)
              ~on_contact:(fun v a ->
                let name = Printf.sprintf "%s seed=%d round %d" label seed !round in
                let pv, pa = !prev in
                if v < pv || (v = pv && a <= pa) then
                  Alcotest.failf "%s: contact (%d, %d) after (%d, %d)" name v a pv pa;
                prev := (v, a);
                if !round > 0 then begin
                  if pos.(a) <> v then
                    Alcotest.failf "%s: agent %d is on %d, not %d" name a pos.(a) v;
                  if v <> 1 then incr meetings
                end;
                contacts := (!round, a) :: !contacts)
              ()
          in
          let r =
            Engine.meet_exchange ~obs ~lazy_walk ~tau (Rng.of_int seed) g ~source:1
              ~agents ~max_rounds:100_000 ()
          in
          Alcotest.(check bool) (label ^ ": completed") true (Run_result.completed r);
          Alcotest.(check bool) (label ^ ": met away from the source") true
            (!meetings > 0);
          List.iter
            (fun (r, a) ->
              Alcotest.(check int)
                (Printf.sprintf "%s seed=%d: agent %d informed in its contact's round"
                   label seed a)
                r tau.(a))
            !contacts)
        [ 1; 2; 3 ])
    dense_cases

let prop_completes_with_lazy_walks =
  QCheck.Test.make ~count:15 ~name:"meetx with lazy walks completes everywhere"
    QCheck.(int_range 4 20)
    (fun half ->
      let n = 2 * half in
      let rng = Rng.of_int (n * 41) in
      let g = Rumor_graph.Gen_random.random_regular_connected rng ~n ~d:4 in
      let r =
        Engine.meet_exchange ~lazy_walk:true rng g ~source:0 ~agents:(Placement.Linear 1.0)
          ~max_rounds:1_000_000 ()
      in
      Run_result.completed r)

let suite =
  [
    Alcotest.test_case "agents at source informed at 0" `Quick
      test_agents_at_source_informed_at_zero;
    Alcotest.test_case "first visitor picks up" `Quick test_first_visitor_picks_up;
    Alcotest.test_case "completes on non-bipartite" `Quick test_completes_on_non_bipartite;
    Alcotest.test_case "bipartite non-lazy stalls" `Quick test_bipartite_non_lazy_can_stall;
    Alcotest.test_case "bipartite lazy completes" `Quick test_bipartite_lazy_completes;
    Alcotest.test_case "default lazy detects bipartite" `Quick
      test_default_lazy_detects_bipartite;
    Alcotest.test_case "curve counts agents" `Quick test_curve_counts_agents;
    Alcotest.test_case "all agents eventually informed" `Quick
      test_meeting_requires_prior_round_information;
    Alcotest.test_case "round cap" `Quick test_round_cap;
    Alcotest.test_case "all_agents_informed mirrors broadcast" `Quick
      test_all_agents_equals_broadcast;
    Alcotest.test_case "dense: instrumented run = bare run" `Quick
      test_obs_run_equals_bare_run;
    Alcotest.test_case "dense: meetings in (vertex, agent) order" `Quick
      test_meetings_in_vertex_agent_order;
    QCheck_alcotest.to_alcotest prop_completes_with_lazy_walks;
  ]
