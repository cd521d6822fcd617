(* Tests for Rumor_sim.Replicate. *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Replicate = Rumor_sim.Replicate
module Protocol = Rumor_sim.Protocol

let push_on_clique ~trace:_ ~rep:_ rng =
  Rumor_protocols.Engine.push rng (Gen.complete 32) ~source:0 ~max_rounds:10_000 ()

let test_rep_count () =
  let m = Replicate.measure ~seed:211 ~reps:7 push_on_clique in
  Alcotest.(check int) "seven measurements" 7 (Array.length m.Replicate.times);
  Alcotest.(check int) "none capped" 0 m.Replicate.capped

let test_reproducible () =
  let m1 = Replicate.measure ~seed:212 ~reps:5 push_on_clique in
  let m2 = Replicate.measure ~seed:212 ~reps:5 push_on_clique in
  Alcotest.(check (array (float 1e-9))) "same times" m1.Replicate.times m2.Replicate.times

let test_seed_changes_results () =
  let m1 = Replicate.measure ~seed:213 ~reps:8 push_on_clique in
  let m2 = Replicate.measure ~seed:214 ~reps:8 push_on_clique in
  Alcotest.(check bool) "different seeds differ" true
    (m1.Replicate.times <> m2.Replicate.times)

let test_replications_vary () =
  let m = Replicate.measure ~seed:215 ~reps:10 push_on_clique in
  let distinct =
    Array.to_list m.Replicate.times
    |> List.sort_uniq Float.compare
    |> List.length
  in
  Alcotest.(check bool) "not all identical" true (distinct > 1)

let test_capped_counted () =
  let f ~trace:_ ~rep:_ rng =
    Rumor_protocols.Engine.push rng (Gen.path 50) ~source:0 ~max_rounds:2 ()
  in
  let m = Replicate.measure ~seed:216 ~reps:4 f in
  Alcotest.(check int) "all capped" 4 m.Replicate.capped;
  Array.iter
    (fun t -> Alcotest.(check (float 1e-9)) "capped time = cap" 2.0 t)
    m.Replicate.times

let test_invalid_reps () =
  try
    ignore (Replicate.measure ~seed:217 ~reps:0 push_on_clique);
    Alcotest.fail "zero reps accepted"
  with Invalid_argument _ -> ()

let test_broadcast_times_wrapper () =
  let m =
    Replicate.broadcast_times ~seed:218 ~reps:5
      ~graph:(fun _rng -> (Gen.complete 16, 0))
      ~spec:Protocol.push ~max_rounds:10_000 ()
  in
  Alcotest.(check int) "five reps" 5 (Array.length m.Replicate.times);
  Alcotest.(check bool) "mean positive" true (Replicate.mean m > 0.0);
  Alcotest.(check bool) "median positive" true (Replicate.median m > 0.0);
  Alcotest.(check bool) "max >= mean" true (Replicate.max_time m >= Replicate.mean m)

let test_graph_resampled_per_replication () =
  (* with a random graph model, the per-rep generator drives graph sampling;
     reproducibility must still hold end to end *)
  let graph rng = (Rumor_graph.Gen_random.random_regular_connected rng ~n:32 ~d:4, 0) in
  let run () =
    Replicate.broadcast_times ~seed:219 ~reps:4 ~graph
      ~spec:(Protocol.visit_exchange ()) ~max_rounds:100_000 ()
  in
  let m1 = run () and m2 = run () in
  Alcotest.(check (array (float 1e-9))) "reproducible with random graphs"
    m1.Replicate.times m2.Replicate.times

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

(* Each record is exactly the run Protocol.run makes on that rep's split
   generator (records carry the informed curve, so this also pins
   per-round dynamics), written in rep order, and the retired [engine]
   provenance flag is no longer written. *)
let test_sink_stream_matches_direct_runs () =
  let graph rng =
    (Rumor_graph.Gen_random.random_regular_connected rng ~n:48 ~d:4, 0)
  in
  let reps = 4 and seed = 220 in
  List.iter
    (fun spec ->
      let records = ref [] in
      let (_ : Replicate.measurement) =
        Replicate.broadcast_times
          ~sink:(fun r -> records := r :: !records)
          ~graph_name:"rr:48,4" ~seed ~reps ~graph ~spec ~max_rounds:100_000 ()
      in
      let rngs = Rumor_prob.Rng.split_n (Rumor_prob.Rng.of_int seed) reps in
      List.iteri
        (fun rep (r : Rumor_obs.Run_record.t) ->
          let label = Printf.sprintf "%s rep %d" (Protocol.name spec) rep in
          let g, source = graph rngs.(rep) in
          let direct =
            Protocol.run spec rngs.(rep) g ~source ~max_rounds:100_000
          in
          Alcotest.(check int) (label ^ ": rep order") rep r.Rumor_obs.Run_record.rep;
          Alcotest.(check (array int))
            (label ^ ": curve") direct.Rumor_protocols.Run_result.informed_curve
            r.Rumor_obs.Run_record.informed_curve;
          Alcotest.(check int) (label ^ ": contacts") direct.Rumor_protocols.Run_result.contacts
            r.Rumor_obs.Run_record.contacts;
          let json = Rumor_obs.Run_record.to_json r in
          Alcotest.(check bool)
            (label ^ ": no engine field") false
            (contains json "\"engine\""))
        (List.rev !records))
    [
      Protocol.push;
      Protocol.push_pull;
      Protocol.visit_exchange ();
      Protocol.meet_exchange ();
    ]

(* A traced measurement matches the untraced one, and its trace brackets
   every rep in a rep chunk holding the rep's graph build and one push
   round span per round it ran. *)
let test_traced_measurement () =
  let module Trace = Rumor_obs.Trace in
  let run ?trace () =
    Replicate.broadcast_times ?trace ~seed:219 ~reps:4
      ~graph:(fun _rng -> (Gen.complete 24, 0))
      ~spec:Protocol.push ~max_rounds:10_000 ()
  in
  let plain = run () in
  let tr = Trace.create () in
  let traced = run ~trace:tr () in
  Alcotest.(check (array (float 0.0))) "times identical" plain.Replicate.times
    traced.Replicate.times;
  let path = Filename.temp_file "rumor_replicate_trace" ".jsonl" in
  let events =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Trace.write_jsonl tr path;
        match Trace.read_file path with
        | Ok f -> f.Trace.file_events
        | Error msg -> Alcotest.failf "read_file: %s" msg)
  in
  let spans name =
    List.filter
      (fun (e : Trace.event) -> e.Trace.ph = `Span && String.equal e.Trace.name name)
      events
  in
  let args name = List.map (fun (e : Trace.event) -> e.Trace.arg) (spans name) in
  Alcotest.(check (list (option int))) "one rep chunk per rep"
    [ Some 0; Some 1; Some 2; Some 3 ] (args "rep.chunk");
  Alcotest.(check (list (option int))) "one rep span per rep"
    [ Some 0; Some 1; Some 2; Some 3 ] (args "rep");
  Alcotest.(check int) "one graph build per rep" 4
    (List.length (spans "graph.build"));
  Alcotest.(check int) "one round span per round run"
    (int_of_float (Array.fold_left ( +. ) 0.0 plain.Replicate.times))
    (List.length (spans "push.round"))

let suite =
  [
    Alcotest.test_case "replication count" `Quick test_rep_count;
    Alcotest.test_case "reproducible" `Quick test_reproducible;
    Alcotest.test_case "seed changes results" `Quick test_seed_changes_results;
    Alcotest.test_case "replications vary" `Quick test_replications_vary;
    Alcotest.test_case "capped runs counted" `Quick test_capped_counted;
    Alcotest.test_case "invalid reps" `Quick test_invalid_reps;
    Alcotest.test_case "broadcast_times wrapper" `Quick test_broadcast_times_wrapper;
    Alcotest.test_case "random graphs reproducible" `Quick
      test_graph_resampled_per_replication;
    Alcotest.test_case "sink stream = direct protocol runs" `Quick
      test_sink_stream_matches_direct_runs;
    Alcotest.test_case "traced measurement = untraced" `Quick
      test_traced_measurement;
  ]
