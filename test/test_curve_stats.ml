(* Tests for Rumor_sim.Curve_stats. *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Curve_stats = Rumor_sim.Curve_stats
module Run_result = Rumor_protocols.Run_result

let synthetic ?(bt = Some 4) curve =
  Run_result.make ~broadcast_time:bt ~rounds_run:(Array.length curve - 1)
    ~informed_curve:curve ~contacts:0 ()

let test_time_to_fraction () =
  let curve = [| 1; 2; 4; 8; 16 |] in
  let at = Curve_stats.time_to_fraction_curve curve in
  Alcotest.(check (option int)) "full" (Some 4) (at 1.0);
  Alcotest.(check (option int)) "half" (Some 3) (Curve_stats.half_time (synthetic curve));
  Alcotest.(check (option int)) "quarter" (Some 2) (at 0.25);
  Alcotest.(check (option int)) "tiny fraction hits round 0" (Some 0) (at 0.01)

let test_fraction_bounds () =
  let curve = [| 1; 2 |] in
  (try
     ignore (Curve_stats.time_to_fraction_curve curve 0.0);
     Alcotest.fail "q = 0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Curve_stats.time_to_fraction_curve curve 1.5);
    Alcotest.fail "q > 1 accepted"
  with Invalid_argument _ -> ()

let test_on_real_run () =
  let g = Gen.complete 64 in
  let r =
    Rumor_protocols.Engine.push (Rng.of_int 601) g ~source:0 ~max_rounds:10_000 ()
  in
  let half = Curve_stats.half_time r in
  let full = Curve_stats.time_to_fraction_curve r.Run_result.informed_curve 1.0 in
  (match (half, full) with
  | Some h, Some f ->
      Alcotest.(check bool) "half before full" true (h <= f);
      Alcotest.(check (option int)) "full = broadcast time"
        r.Run_result.broadcast_time (Some f)
  | _ -> Alcotest.fail "milestones missing");
  (* push at most doubles *)
  let c = r.Run_result.informed_curve in
  for t = 1 to Array.length c - 1 do
    if c.(t) > 2 * c.(t - 1) then Alcotest.failf "round %d more than doubles" t
  done

(* a capped run reports the milestones of what it reached; an empty curve
   and a capped run that informed no one have none *)
let test_capped_and_empty () =
  Alcotest.(check (option int)) "capped half" (Some 2)
    (Curve_stats.half_time (synthetic ~bt:None [| 1; 1; 3; 3; 3 |]));
  Alcotest.(check (option int)) "empty curve" None
    (Curve_stats.time_to_fraction_curve [||] 0.5);
  Alcotest.(check (option int)) "capped at zero" None
    (Curve_stats.time_to_fraction_curve ~completed:false [| 0; 0 |] 0.5)

(* on a non-decreasing curve the milestone is the first round whose count
   reaches q times the final count, and it does not move back as q grows *)
let prop_first_round_reaching =
  QCheck.Test.make ~count:300 ~name:"milestone is the first round reaching q"
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (int_range 0 5)) (int_range 1 100))
    (fun (steps, pct) ->
      (* running sums of the steps, from 1 *)
      let curve = Array.of_list steps in
      curve.(0) <- curve.(0) + 1;
      for t = 1 to Array.length curve - 1 do
        curve.(t) <- curve.(t - 1) + curve.(t)
      done;
      let q = float_of_int pct /. 100.0 in
      let target = q *. float_of_int curve.(Array.length curve - 1) in
      match Curve_stats.time_to_fraction_curve curve q with
      | None -> false
      | Some t ->
          float_of_int curve.(t) >= target
          && (t = 0 || float_of_int curve.(t - 1) < target)
          && (pct = 100
             || match Curve_stats.time_to_fraction_curve curve (q +. 0.01) with
                | Some t' -> t' >= t
                | None -> false))

let suite =
  [
    Alcotest.test_case "time to fraction" `Quick test_time_to_fraction;
    Alcotest.test_case "fraction bounds" `Quick test_fraction_bounds;
    Alcotest.test_case "on a real run" `Quick test_on_real_run;
    Alcotest.test_case "capped and empty curves" `Quick test_capped_and_empty;
    QCheck_alcotest.to_alcotest prop_first_round_reaching;
  ]
