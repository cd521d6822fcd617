(* Tests for Rumor_protocols.Multi_rumor. *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Placement = Rumor_agents.Placement
module Mr = Rumor_protocols.Multi_rumor

let inject ?(round = 0) source = { Mr.rumor_source = source; start_round = round }

let run ?(agents = Placement.Linear 1.0) ?(max_rounds = 100_000) seed g injections =
  Mr.run (Rng.of_int seed) g ~injections ~agents ~max_rounds

let test_single_rumor_completes () =
  let g = Gen.complete 16 in
  let r = run 441 g [| inject 0 |] in
  Alcotest.(check bool) "all done" true r.Mr.all_done;
  Alcotest.(check bool) "positive time" true (r.Mr.per_rumor_time.(0) >= 1)

let test_many_rumors_complete () =
  let g = Gen.complete 32 in
  let injections = Array.init 10 (fun i -> inject (i * 3)) in
  let r = run 442 g injections in
  Alcotest.(check bool) "all done" true r.Mr.all_done;
  Array.iter
    (fun t -> Alcotest.(check bool) "finite" true (t < max_int))
    r.Mr.per_rumor_time

let test_staggered_injections () =
  let g = Gen.complete 24 in
  let injections = [| inject 0; inject ~round:20 5; inject ~round:40 11 |] in
  let r = run 443 g injections in
  Alcotest.(check bool) "all done" true r.Mr.all_done;
  (* rumor 2 cannot finish before it starts: total rounds >= 40 *)
  Alcotest.(check bool) "ran past the last injection" true (r.Mr.rounds_run >= 40);
  Array.iter
    (fun t -> Alcotest.(check bool) "per-rumor time is relative" true (t >= 0 && t < 200))
    r.Mr.per_rumor_time

let test_rumors_do_not_interfere () =
  (* the same seed with 1 rumor and with 8 rumors: rumor 0's broadcast time
     is identical, because all rumors ride the same walks *)
  let g = Gen.complete 32 in
  let single = run 444 g [| inject 0 |] in
  let multi = run 444 g (Array.init 8 (fun i -> inject (if i = 0 then 0 else i))) in
  Alcotest.(check int) "rumor 0 unaffected by other rumors"
    single.Mr.per_rumor_time.(0) multi.Mr.per_rumor_time.(0)

let test_same_source_same_round_same_time () =
  (* two rumors injected identically must complete at the same round *)
  let g = Gen.cycle 12 in
  let r = run 445 g [| inject 4; inject 4 |] in
  Alcotest.(check int) "identical rumors, identical times" r.Mr.per_rumor_time.(0)
    r.Mr.per_rumor_time.(1)

let test_round_cap () =
  let g = Gen.path 100 in
  let r = run ~agents:(Placement.Stationary 2) ~max_rounds:3 446 g [| inject 0 |] in
  Alcotest.(check bool) "not done" false r.Mr.all_done;
  Alcotest.(check int) "capped time marker" max_int r.Mr.per_rumor_time.(0);
  Alcotest.(check int) "ran to cap" 3 r.Mr.rounds_run

let test_invalid () =
  let g = Gen.complete 4 in
  (try
     ignore (run 447 g [||]);
     Alcotest.fail "no injections accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (run 448 g (Array.make 63 (inject 0)));
     Alcotest.fail "63 rumors accepted"
   with Invalid_argument _ -> ());
  try
    ignore (run 449 g [| inject 9 |]);
    Alcotest.fail "bad source accepted"
  with Invalid_argument _ -> ()

let test_matches_visit_exchange_time () =
  (* with one rumor, multi-rumor visit-exchange is the same process as
     visit-exchange; compare distributions via means over seeds *)
  let g = Gen.complete 64 in
  let mean_multi =
    let total = ref 0 in
    for seed = 0 to 9 do
      total := !total + (run (4500 + seed) g [| inject 0 |]).Mr.per_rumor_time.(0)
    done;
    float_of_int !total /. 10.0
  in
  let mean_single =
    let total = ref 0 in
    for seed = 0 to 9 do
      let r =
        Rumor_protocols.Engine.visit_exchange (Rng.of_int (4600 + seed)) g ~source:0
          ~agents:(Placement.Linear 1.0) ~max_rounds:100_000 ()
      in
      total := !total + Rumor_protocols.Run_result.time_exn r
    done;
    float_of_int !total /. 10.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "multi %.1f ~ single %.1f" mean_multi mean_single)
    true
    (Float.abs (mean_multi -. mean_single) < 0.5 *. mean_single +. 2.0)

let suite =
  [
    Alcotest.test_case "single rumor completes" `Quick test_single_rumor_completes;
    Alcotest.test_case "many rumors complete" `Quick test_many_rumors_complete;
    Alcotest.test_case "staggered injections" `Quick test_staggered_injections;
    Alcotest.test_case "rumors do not interfere" `Quick test_rumors_do_not_interfere;
    Alcotest.test_case "identical rumors, identical times" `Quick
      test_same_source_same_round_same_time;
    Alcotest.test_case "round cap" `Quick test_round_cap;
    Alcotest.test_case "invalid arguments" `Quick test_invalid;
    Alcotest.test_case "matches single-rumor visit-exchange" `Quick
      test_matches_visit_exchange_time;
  ]
