(* Tests for Rumor_protocols.Async_engine beyond the golden digests
   (test_golden.ml, calendar queue): the heap backend and every clock
   batch size must reproduce the same run — results, curves, and the full
   observation stream — plus the sparse path, projection and validation. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Gen_random = Rumor_graph.Gen_random
module Placement = Rumor_agents.Placement
module P = Rumor_protocols
module Async_engine = Rumor_protocols.Async_engine
module Instrument = Rumor_obs.Instrument

let families () =
  [
    ("complete16", Gen.complete 16);
    ("torus6x6", Gen.torus ~rows:6 ~cols:6);
    ("path12", Gen.path 12);
    ("star9", Gen.star ~leaves:9);
    ("er40", Gen_random.erdos_renyi (Rng.of_int 4242) ~n:40 ~p:0.15);
    ("reg3x20", Gen_random.random_regular_connected (Rng.of_int 777) ~n:20 ~d:3);
  ]

let seeds = [ 1; 42; 9001 ]

let check_push_result label (a : P.Async_push.result) (b : P.Async_push.result) =
  Alcotest.(check (option (float 0.0)))
    (label ^ ": broadcast_time") a.P.Async_push.broadcast_time
    b.P.Async_push.broadcast_time;
  Alcotest.(check int) (label ^ ": rings") a.P.Async_push.rings b.P.Async_push.rings;
  Alcotest.(check int)
    (label ^ ": informed") a.P.Async_push.informed b.P.Async_push.informed;
  Alcotest.(check (array int))
    (label ^ ": curve") a.P.Async_push.curve b.P.Async_push.curve

let check_meet_result label (a : P.Async_meet_exchange.result)
    (b : P.Async_meet_exchange.result) =
  Alcotest.(check (option (float 0.0)))
    (label ^ ": broadcast_time") a.P.Async_meet_exchange.broadcast_time
    b.P.Async_meet_exchange.broadcast_time;
  Alcotest.(check int)
    (label ^ ": rings") a.P.Async_meet_exchange.rings b.P.Async_meet_exchange.rings;
  Alcotest.(check int)
    (label ^ ": informed") a.P.Async_meet_exchange.informed
    b.P.Async_meet_exchange.informed;
  Alcotest.(check int)
    (label ^ ": agents") a.P.Async_meet_exchange.agents b.P.Async_meet_exchange.agents;
  Alcotest.(check (array int))
    (label ^ ": curve") a.P.Async_meet_exchange.curve b.P.Async_meet_exchange.curve

(* records the exact hook-event sequence, not just counts *)
let stream_obs () =
  let events = ref [] in
  let obs =
    Instrument.make
      ~on_contact:(fun u v -> events := (0, u, v, 0) :: !events)
      ~on_walker_move:(fun ~agent ~from_ ~to_ ->
        events := (1, agent, from_, to_) :: !events)
      ()
  in
  (obs, events)

(* -------------------------------------------- queue backend identity *)

let test_push_heap_matches_calendar () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          List.iter
            (fun variant ->
              let run queue =
                let obs, events = stream_obs () in
                let r =
                  Async_engine.push ~obs ~queue (Rng.of_int seed) g ~variant ~source:0
                    ~max_time:1e6
                in
                (r, !events)
              in
              let heap, heap_events = run Async_engine.Heap in
              let cal, cal_events = run Async_engine.Calendar in
              let label = Printf.sprintf "%s seed=%d" name seed in
              check_push_result label heap cal;
              Alcotest.(check bool) (label ^ ": obs stream") true (heap_events = cal_events))
            [ P.Async_push.Async_push; P.Async_push.Async_push_pull ])
        seeds)
    (families ())

let test_push_batch_independent () =
  let g = Gen_random.erdos_renyi (Rng.of_int 5) ~n:48 ~p:0.2 in
  let run batch =
    Async_engine.push ~batch (Rng.of_int 31) g ~variant:P.Async_push.Async_push
      ~source:0 ~max_time:1e6
  in
  let reference = run 4096 in
  List.iter
    (fun batch ->
      check_push_result (Printf.sprintf "batch=%d" batch) reference (run batch))
    [ 1; 7; 65536 ]

(* ------------------------------------------------ meet-exchange identity *)

let agent_specs = [ Placement.Stationary 12; Placement.One_per_vertex ]

let test_meet_exchange_heap_matches_calendar () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          List.iter
            (fun agents ->
              let run queue =
                let obs, events = stream_obs () in
                let r =
                  Async_engine.meet_exchange ~obs ~queue (Rng.of_int seed) g ~source:0
                    ~agents ~max_time:20_000.0
                in
                (r, !events)
              in
              let heap, heap_events = run Async_engine.Heap in
              let cal, cal_events = run Async_engine.Calendar in
              let label = Printf.sprintf "me %s seed=%d" name seed in
              check_meet_result label heap cal;
              Alcotest.(check bool) (label ^ ": obs stream") true (heap_events = cal_events))
            agent_specs)
        seeds)
    (families ())

let test_meet_exchange_batch_independent () =
  let g = Gen.torus ~rows:5 ~cols:5 in
  let run batch =
    Async_engine.meet_exchange ~batch (Rng.of_int 23) g ~source:0
      ~agents:(Placement.Stationary 10) ~max_time:20_000.0
  in
  let reference = run 4096 in
  List.iter
    (fun batch ->
      check_meet_result (Printf.sprintf "me batch=%d" batch) reference (run batch))
    [ 1; 7; 65536 ]

(* ------------------------------------------------- run_result projection *)

let test_to_run_result () =
  let g = Gen.complete 16 in
  let r =
    Async_engine.push (Rng.of_int 3) g ~variant:P.Async_push.Async_push ~source:0
      ~max_time:1e6
  in
  let rr = P.Async_push.to_run_result r in
  (match (r.P.Async_push.broadcast_time, rr.P.Run_result.broadcast_time) with
  | Some t, Some m ->
      Alcotest.(check int) "rounded up" (int_of_float (Float.ceil t)) m
  | _ -> Alcotest.fail "expected completion");
  let curve = rr.P.Run_result.informed_curve in
  Alcotest.(check int) "rounds_run is curve length - 1"
    (Array.length curve - 1) rr.P.Run_result.rounds_run;
  Alcotest.(check int) "curve starts at 1" 1 curve.(0);
  Alcotest.(check int) "curve ends informed" 16 curve.(Array.length curve - 1);
  Alcotest.(check int) "contacts = rings" r.P.Async_push.rings
    rr.P.Run_result.contacts;
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

let test_queue_stats_out () =
  let g = Gen.torus ~rows:6 ~cols:6 in
  let stats = ref None in
  let (_ : P.Async_push.result) =
    Async_engine.push ~queue:Async_engine.Calendar ~stats (Rng.of_int 2) g
      ~variant:P.Async_push.Async_push ~source:0 ~max_time:1e6
  in
  (match !stats with
  | Some s ->
      Alcotest.(check bool) "buckets >= 16" true
        (s.Rumor_des.Calendar_queue.buckets >= 16);
      Alcotest.(check bool) "width positive" true
        (s.Rumor_des.Calendar_queue.width > 0.0)
  | None -> Alcotest.fail "calendar stats missing");
  let (_ : P.Async_push.result) =
    Async_engine.push ~queue:Async_engine.Heap ~stats (Rng.of_int 2) g
      ~variant:P.Async_push.Async_push ~source:0 ~max_time:1e6
  in
  Alcotest.(check bool) "no stats on heap" true (Option.is_none !stats)

(* ----------------------------------------------------------- validation *)

let test_validation () =
  let g = Gen.complete 4 in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad source" true
    (bad (fun () ->
         Async_engine.push (Rng.of_int 1) g ~variant:P.Async_push.Async_push
           ~source:9 ~max_time:10.0));
  Alcotest.(check bool) "bad max_time" true
    (bad (fun () ->
         Async_engine.push (Rng.of_int 1) g ~variant:P.Async_push.Async_push
           ~source:0 ~max_time:0.0));
  Alcotest.(check bool) "bad batch" true
    (bad (fun () ->
         Async_engine.push ~batch:0 (Rng.of_int 1) g
           ~variant:P.Async_push.Async_push ~source:0 ~max_time:10.0));
  Alcotest.(check bool) "meet bad source" true
    (bad (fun () ->
         Async_engine.meet_exchange (Rng.of_int 1) g ~source:(-1)
           ~agents:Placement.One_per_vertex ~max_time:10.0));
  Alcotest.(check bool) "meet bad batch" true
    (bad (fun () ->
         Async_engine.meet_exchange ~batch:(-3) (Rng.of_int 1) g ~source:0
           ~agents:Placement.One_per_vertex ~max_time:10.0))

(* The sparse meet-exchange path uses one aggregate rate-k clock over a
   Fenwick occupancy index; it is seed-deterministic but not bit-identical
   to the dense per-agent-clock path, so we check completion, conservation
   of the agent count, and determinism. *)
let test_meet_exchange_sparse () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let run () =
            Async_engine.meet_exchange ~walkers:P.Sparse_walkers.Sparse
              (Rng.of_int seed) g ~source:0 ~agents:(Placement.Stationary 14)
              ~max_time:1e6
          in
          let r = run () in
          Alcotest.(check bool)
            (Printf.sprintf "sparse %s seed=%d: completes" name seed)
            true
            (r.P.Async_meet_exchange.broadcast_time <> None);
          Alcotest.(check int)
            (name ^ ": agent count") 14 r.P.Async_meet_exchange.agents;
          Alcotest.(check int)
            (name ^ ": all agents informed") 14 r.P.Async_meet_exchange.informed;
          check_meet_result (Printf.sprintf "sparse %s seed=%d" name seed) r
            (run ()))
        seeds)
    (families ())

let suite =
  [
    Alcotest.test_case "push/push-pull: heap = calendar (obs)" `Quick
      test_push_heap_matches_calendar;
    Alcotest.test_case "push is batch-independent" `Quick test_push_batch_independent;
    Alcotest.test_case "meet-exchange: heap = calendar (obs)" `Quick
      test_meet_exchange_heap_matches_calendar;
    Alcotest.test_case "meet-exchange is batch-independent" `Quick
      test_meet_exchange_batch_independent;
    Alcotest.test_case "sparse meet-exchange completes deterministically" `Quick
      test_meet_exchange_sparse;
    Alcotest.test_case "to_run_result projection" `Quick test_to_run_result;
    Alcotest.test_case "calendar stats out-parameter" `Quick test_queue_stats_out;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
