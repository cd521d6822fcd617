(* Tests for the push kernel, Rumor_protocols.Engine.push. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Algo = Rumor_graph.Algo
module Engine = Rumor_protocols.Engine
module Run_result = Rumor_protocols.Run_result

let run ?obs seed g source =
  Engine.push ?obs (Rng.of_int seed) g ~source ~max_rounds:1_000_000 ()

let test_k2_exact () =
  let g = Gen.complete 2 in
  let r = run 101 g 0 in
  Alcotest.(check (option int)) "K2 takes exactly 1 round" (Some 1) r.Run_result.broadcast_time;
  Alcotest.(check int) "one contact" 1 r.Run_result.contacts

let test_single_vertex () =
  let g = Graph.of_edges ~n:1 [] in
  let r = run 102 g 0 in
  Alcotest.(check (option int)) "already done" (Some 0) r.Run_result.broadcast_time;
  Alcotest.(check int) "no rounds" 0 r.Run_result.rounds_run

let test_completes_on_complete_graph () =
  let g = Gen.complete 64 in
  let r = run 103 g 5 in
  Alcotest.(check bool) "completed" true (Run_result.completed r);
  (* push doubles the informed set at best: at least log2 n rounds *)
  Alcotest.(check bool) "at least log2 n" true (Run_result.time_exn r >= 6)

let test_broadcast_time_at_least_eccentricity () =
  List.iter
    (fun (g, s) ->
      let r = run 104 g s in
      let ecc = Algo.eccentricity g s in
      Alcotest.(check bool)
        (Printf.sprintf "T=%d >= ecc=%d" (Run_result.time_exn r) ecc)
        true
        (Run_result.time_exn r >= ecc))
    [
      (Gen.path 20, 0);
      (Gen.cycle 15, 3);
      (Gen.torus ~rows:5 ~cols:5, 0);
      (Gen.complete_binary_tree ~levels:5, 0);
    ]

let test_informed_curve_shape () =
  let g = Gen.complete 32 in
  let r = run 105 g 0 in
  let curve = r.Run_result.informed_curve in
  Alcotest.(check int) "starts at 1" 1 curve.(0);
  Alcotest.(check int) "ends at n" 32 curve.(Array.length curve - 1);
  Alcotest.(check int) "length = rounds + 1" (r.Run_result.rounds_run + 1)
    (Array.length curve);
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone";
    (* each informed vertex informs at most one new vertex per round *)
    if curve.(i) > 2 * curve.(i - 1) then Alcotest.fail "curve more than doubled"
  done

let test_contacts_counted () =
  (* every previously informed vertex sends exactly one message per round *)
  let g = Gen.complete 16 in
  let r = run 106 g 0 in
  let curve = r.Run_result.informed_curve in
  let expected = ref 0 in
  for i = 0 to Array.length curve - 2 do
    expected := !expected + curve.(i)
  done;
  Alcotest.(check int) "contacts = sum of active counts" !expected r.Run_result.contacts

let test_round_cap () =
  let g = Gen.path 100 in
  let r = Engine.push (Rng.of_int 107) g ~source:0 ~max_rounds:5 () in
  Alcotest.(check (option int)) "capped" None r.Run_result.broadcast_time;
  Alcotest.(check int) "ran exactly cap" 5 r.Run_result.rounds_run;
  Alcotest.(check bool) "time_exn raises" true
    (try
       ignore (Run_result.time_exn r);
       false
     with Invalid_argument _ -> true)

let test_zero_cap () =
  let g = Gen.complete 4 in
  let r = Engine.push (Rng.of_int 108) g ~source:0 ~max_rounds:0 () in
  Alcotest.(check (option int)) "capped immediately" None r.Run_result.broadcast_time

let test_source_out_of_range () =
  let g = Gen.complete 4 in
  try
    ignore (run 109 g 7);
    Alcotest.fail "bad source accepted"
  with Invalid_argument _ -> ()

let test_informed_times () =
  let g = Gen.star ~leaves:6 in
  let tau = Array.make (Graph.n g) 0 in
  let (_ : Run_result.t) =
    Engine.push ~tau (Rng.of_int 110) g ~source:0 ~max_rounds:100_000 ()
  in
  Alcotest.(check int) "source at round 0" 0 tau.(0);
  Array.iteri
    (fun v t ->
      if t = max_int then Alcotest.failf "vertex %d never informed" v;
      if v <> 0 && t < 1 then Alcotest.failf "leaf %d informed too early" v)
    tau;
  (* informing times on the star are distinct for leaves: center pushes to
     exactly one leaf per round *)
  let times = Array.to_list (Array.sub tau 1 6) in
  Alcotest.(check int) "distinct leaf times" 6
    (List.length (List.sort_uniq Int.compare times))

let test_star_push_is_coupon_collector_slow () =
  (* E[T] = n H_n; with n = 64 leaves that is ~ 300, far above log n *)
  let g = Gen.star ~leaves:64 in
  let total = ref 0 in
  for seed = 1 to 10 do
    total := !total + Run_result.time_exn (run (1100 + seed) g 0)
  done;
  let mean = float_of_int !total /. 10.0 in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.0f is >> log n" mean)
    true (mean > 100.0)

let test_deterministic_given_seed () =
  let g = Gen.torus ~rows:6 ~cols:6 in
  let r1 = run 111 g 0 and r2 = run 111 g 0 in
  Alcotest.(check (option int)) "same broadcast time" r1.Run_result.broadcast_time
    r2.Run_result.broadcast_time;
  Alcotest.(check int) "same contacts" r1.Run_result.contacts r2.Run_result.contacts

let test_traffic_recording () =
  let g = Gen.complete 8 in
  let traffic = Rumor_protocols.Traffic.create g in
  let r = run ~obs:(Rumor_protocols.Traffic.calls traffic) 112 g 0 in
  Alcotest.(check int) "one traffic record per contact" r.Run_result.contacts
    (Rumor_protocols.Traffic.total traffic)

let prop_completes_on_connected_regular =
  QCheck.Test.make ~count:20 ~name:"push completes on random regular graphs"
    QCheck.(int_range 4 40)
    (fun half ->
      let n = 2 * half in
      let rng = Rng.of_int (n * 13) in
      let g = Rumor_graph.Gen_random.random_regular_connected rng ~n ~d:3 in
      let r = Engine.push rng g ~source:0 ~max_rounds:100_000 () in
      Run_result.completed r)

let suite =
  [
    Alcotest.test_case "K2 exact" `Quick test_k2_exact;
    Alcotest.test_case "single vertex" `Quick test_single_vertex;
    Alcotest.test_case "complete graph" `Quick test_completes_on_complete_graph;
    Alcotest.test_case "time >= eccentricity" `Quick test_broadcast_time_at_least_eccentricity;
    Alcotest.test_case "informed curve shape" `Quick test_informed_curve_shape;
    Alcotest.test_case "contacts counted" `Quick test_contacts_counted;
    Alcotest.test_case "round cap" `Quick test_round_cap;
    Alcotest.test_case "zero cap" `Quick test_zero_cap;
    Alcotest.test_case "source out of range" `Quick test_source_out_of_range;
    Alcotest.test_case "informed times" `Quick test_informed_times;
    Alcotest.test_case "star is coupon-collector slow" `Quick
      test_star_push_is_coupon_collector_slow;
    Alcotest.test_case "deterministic by seed" `Quick test_deterministic_given_seed;
    Alcotest.test_case "traffic recording" `Quick test_traffic_recording;
    QCheck_alcotest.to_alcotest prop_completes_on_connected_regular;
  ]
