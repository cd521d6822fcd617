(* Tests for Rumor_protocols.Traffic. *)

module Gen = Rumor_graph.Gen_basic
module Traffic = Rumor_protocols.Traffic
module Instrument = Rumor_obs.Instrument

let test_record_and_count () =
  let g = Gen.cycle 5 in
  let t = Traffic.create g in
  Traffic.record t 0 1;
  Traffic.record t 1 0;
  Traffic.record t 2 3;
  Alcotest.(check int) "direction ignored" 2 (Traffic.count t 0 1);
  Alcotest.(check int) "symmetric query" 2 (Traffic.count t 1 0);
  Alcotest.(check int) "other edge" 1 (Traffic.count t 2 3);
  Alcotest.(check int) "untouched edge" 0 (Traffic.count t 4 0);
  Alcotest.(check int) "total" 3 (Traffic.total t)

let test_record_non_edge () =
  let g = Gen.path 4 in
  let t = Traffic.create g in
  Alcotest.check_raises "non-edge" Not_found (fun () -> Traffic.record t 0 3)

let test_loads_cover_all_edges () =
  let g = Gen.complete 5 in
  let t = Traffic.create g in
  Traffic.record t 0 1;
  let loads = Traffic.loads t in
  Alcotest.(check int) "one slot per edge" 10 (Array.length loads);
  Alcotest.(check int) "sums to total" 1 (Array.fold_left ( + ) 0 loads)

let test_fairness_uniform () =
  let g = Gen.cycle 6 in
  let t = Traffic.create g in
  Rumor_graph.Graph.iter_edges g (fun u v ->
      Traffic.record t u v;
      Traffic.record t u v);
  let f = Traffic.fairness t in
  Alcotest.(check int) "edges" 6 f.Traffic.edges;
  Alcotest.(check (float 1e-9)) "mean" 2.0 f.Traffic.mean;
  Alcotest.(check (float 1e-9)) "cv" 0.0 f.Traffic.cv;
  Alcotest.(check int) "min" 2 f.Traffic.min_load;
  Alcotest.(check int) "max" 2 f.Traffic.max_load;
  Alcotest.(check (float 1e-9)) "max/mean" 1.0 f.Traffic.max_over_mean

let test_fairness_skewed () =
  let g = Gen.path 3 in
  let t = Traffic.create g in
  for _ = 1 to 9 do
    Traffic.record t 0 1
  done;
  Traffic.record t 1 2;
  let f = Traffic.fairness t in
  Alcotest.(check (float 1e-9)) "mean" 5.0 f.Traffic.mean;
  Alcotest.(check int) "min" 1 f.Traffic.min_load;
  Alcotest.(check int) "max" 9 f.Traffic.max_load;
  Alcotest.(check (float 1e-9)) "max/mean" 1.8 f.Traffic.max_over_mean

let test_fairness_empty_rejected () =
  let t = Traffic.create (Gen.path 3) in
  try
    ignore (Traffic.fairness t);
    Alcotest.fail "empty traffic accepted"
  with Invalid_argument _ -> ()

let test_calls_and_steps_instruments () =
  (* each instrument listens to one event kind only; steps drops lazy stays *)
  let g = Gen.cycle 5 in
  let fire (i : Instrument.t) =
    i.Instrument.on_contact 0 1;
    i.Instrument.on_contact 2 1;
    i.Instrument.on_walker_move ~agent:0 ~from_:3 ~to_:4;
    i.Instrument.on_walker_move ~agent:1 ~from_:4 ~to_:4;
    i.Instrument.on_walker_move ~agent:2 ~from_:0 ~to_:4
  in
  let calls = Traffic.create g in
  fire (Traffic.calls calls);
  Alcotest.(check int) "calls: total" 2 (Traffic.total calls);
  Alcotest.(check int) "calls: 0-1" 1 (Traffic.count calls 0 1);
  Alcotest.(check int) "calls: 1-2" 1 (Traffic.count calls 1 2);
  Alcotest.(check int) "calls: no moves" 0 (Traffic.count calls 3 4);
  let steps = Traffic.create g in
  fire (Traffic.steps steps);
  Alcotest.(check int) "steps: total" 2 (Traffic.total steps);
  Alcotest.(check int) "steps: 3-4" 1 (Traffic.count steps 3 4);
  Alcotest.(check int) "steps: 4-0" 1 (Traffic.count steps 4 0);
  Alcotest.(check int) "steps: no contacts" 0 (Traffic.count steps 0 1)

let suite =
  [
    Alcotest.test_case "record and count" `Quick test_record_and_count;
    Alcotest.test_case "non-edge rejected" `Quick test_record_non_edge;
    Alcotest.test_case "loads cover all edges" `Quick test_loads_cover_all_edges;
    Alcotest.test_case "fairness uniform" `Quick test_fairness_uniform;
    Alcotest.test_case "fairness skewed" `Quick test_fairness_skewed;
    Alcotest.test_case "fairness of empty rejected" `Quick test_fairness_empty_rejected;
    Alcotest.test_case "calls and steps instruments" `Quick
      test_calls_and_steps_instruments;
  ]
