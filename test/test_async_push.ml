(* Tests for continuous-time push and push-pull (the Async_push model, run
   by Rumor_protocols.Async_engine.push). *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Gen_random = Rumor_graph.Gen_random
module Async = Rumor_protocols.Async_push

let run ?(variant = Async.Async_push) ?(max_time = 1e6) seed g source =
  Rumor_protocols.Async_engine.push (Rng.of_int seed) g ~variant ~source ~max_time

let test_completes_on_small_graphs () =
  List.iter
    (fun (g, s) ->
      List.iter
        (fun variant ->
          let r = run ~variant 311 g s in
          Alcotest.(check bool) "completed" true (r.Async.broadcast_time <> None);
          Alcotest.(check int) "all informed" (Rumor_graph.Graph.n g) r.Async.informed)
        [ Async.Async_push; Async.Async_push_pull ])
    [ (Gen.complete 16, 0); (Gen.cycle 10, 0); (Gen.star ~leaves:12, 3) ]

let test_k2 () =
  let r = run 312 (Gen.complete 2) 0 in
  match r.Async.broadcast_time with
  | None -> Alcotest.fail "did not complete"
  | Some t -> Alcotest.(check bool) "positive continuous time" true (t > 0.0)

let test_time_cap () =
  let g = Gen.path 200 in
  let r = run ~max_time:0.5 313 g 0 in
  Alcotest.(check bool) "capped" true (r.Async.broadcast_time = None);
  Alcotest.(check bool) "partial progress recorded" true (r.Async.informed >= 1)

let test_rings_counted () =
  let r = run 314 (Gen.complete 8) 0 in
  Alcotest.(check bool) "rings positive" true (r.Async.rings > 0)

let test_deterministic_by_seed () =
  let g = Gen.torus ~rows:5 ~cols:5 in
  let r1 = run 315 g 0 and r2 = run 315 g 0 in
  Alcotest.(check bool) "same time" true (r1.Async.broadcast_time = r2.Async.broadcast_time);
  Alcotest.(check int) "same rings" r1.Async.rings r2.Async.rings

let test_invalid_args () =
  let g = Gen.complete 4 in
  (try
     ignore (run 316 g 9);
     Alcotest.fail "bad source accepted"
   with Invalid_argument _ -> ());
  try
    ignore (run ~max_time:0.0 317 g 0);
    Alcotest.fail "zero max_time accepted"
  with Invalid_argument _ -> ()

let mean_time variant g seeds =
  let total = ref 0.0 in
  List.iter
    (fun s ->
      match (run ~variant s g 0).Async.broadcast_time with
      | Some t -> total := !total +. t
      | None -> Alcotest.fail "run capped unexpectedly")
    seeds;
  !total /. float_of_int (List.length seeds)

let test_async_sync_equivalence_on_regular () =
  (* Sauerwald [41]: on regular graphs asynchronous push matches synchronous
     push asymptotically.  Compare means over seeds; allow a factor 2. *)
  let rng = Rng.of_int 318 in
  let g = Gen_random.random_regular_connected rng ~n:512 ~d:9 in
  let seeds = List.init 10 (fun i -> 3180 + i) in
  let async_mean = mean_time Async.Async_push g seeds in
  let sync_mean =
    let total = ref 0 in
    List.iter
      (fun s ->
        total :=
          !total
          + Rumor_protocols.Run_result.time_exn
              (Rumor_protocols.Engine.push (Rng.of_int s) g ~source:0 ~max_rounds:100_000 ()))
      seeds;
    float_of_int !total /. float_of_int (List.length seeds)
  in
  let ratio = async_mean /. sync_mean in
  Alcotest.(check bool)
    (Printf.sprintf "async %.1f vs sync %.1f (ratio %.2f) within 2x" async_mean
       sync_mean ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_push_pull_faster_than_push_on_star () =
  (* the pull half dominates on the star in the async model too *)
  let g = Gen.star ~leaves:128 in
  let seeds = List.init 5 (fun i -> 3190 + i) in
  let pp = mean_time Async.Async_push_pull g seeds in
  let p = mean_time Async.Async_push g seeds in
  Alcotest.(check bool)
    (Printf.sprintf "async push-pull %.1f << async push %.1f" pp p)
    true (pp *. 10.0 < p)

let suite =
  [
    Alcotest.test_case "completes on small graphs" `Quick test_completes_on_small_graphs;
    Alcotest.test_case "K2" `Quick test_k2;
    Alcotest.test_case "time cap" `Quick test_time_cap;
    Alcotest.test_case "rings counted" `Quick test_rings_counted;
    Alcotest.test_case "deterministic by seed" `Quick test_deterministic_by_seed;
    Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
    Alcotest.test_case "async ~ sync push on regular graphs" `Quick
      test_async_sync_equivalence_on_regular;
    Alcotest.test_case "async push-pull beats push on star" `Quick
      test_push_pull_faster_than_push_on_star;
  ]
