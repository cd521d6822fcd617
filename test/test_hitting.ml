(* Tests for Rumor_graph.Hitting against textbook closed forms, plus a
   cross-validation of the meet-exchange round kernel's walks against the
   exact values. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Hitting = Rumor_graph.Hitting
module Placement = Rumor_agents.Placement
module Engine = Rumor_protocols.Engine

let check label expected actual =
  if Float.abs (expected -. actual) > 1e-6 *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: %.6f, want %.6f" label actual expected

let test_path_closed_form () =
  (* on the path 0..L, hitting time from k to 0 is k (2L - k) *)
  let l = 7 in
  let g = Gen.path (l + 1) in
  let h = Hitting.hitting_times g 0 in
  for k = 0 to l do
    check (Printf.sprintf "path h(%d->0)" k) (float_of_int (k * ((2 * l) - k))) h.(k)
  done

let test_cycle_closed_form () =
  (* on the n-cycle, hitting time at distance d is d (n - d) *)
  let n = 9 in
  let g = Gen.cycle n in
  let h = Hitting.hitting_times g 0 in
  for v = 0 to n - 1 do
    let d = min v (n - v) in
    check (Printf.sprintf "cycle h(%d->0)" v) (float_of_int (d * (n - d))) h.(v)
  done

let test_complete_closed_form () =
  (* on K_n every hitting time is n - 1 (geometric with p = 1/(n-1)) *)
  let n = 11 in
  let g = Gen.complete n in
  let h = Hitting.hitting_times g 3 in
  for v = 0 to n - 1 do
    if v <> 3 then check "K_n hitting" (float_of_int (n - 1)) h.(v)
  done

let test_star_closed_form () =
  (* star with l leaves: leaf -> center is 1; center -> leaf is 2l - 1;
     leaf -> other leaf is 2l *)
  let l = 6 in
  let g = Gen.star ~leaves:l in
  check "leaf->center" 1.0 ((Hitting.hitting_times g 0).(1));
  check "center->leaf" (float_of_int ((2 * l) - 1)) ((Hitting.hitting_times g 1).(0));
  check "leaf->leaf" (float_of_int (2 * l)) ((Hitting.hitting_times g 1).(2))

let test_lazy_doubles () =
  let g = Gen.cycle 7 in
  let plain = Hitting.hitting_times g 0 in
  let lazy_h = Hitting.hitting_times ~lazy_walk:true g 0 in
  Array.iteri
    (fun v h -> check (Printf.sprintf "lazy double at %d" v) (2.0 *. h) lazy_h.(v))
    plain

let test_commute_time_on_tree () =
  (* commute(u,v) = 2 m R_eff(u,v); on a tree R_eff is the distance *)
  let g = Gen.complete_binary_tree ~levels:4 in
  let m = float_of_int (Graph.num_edges g) in
  let dist = Rumor_graph.Algo.bfs_distances g 0 in
  let to_root = Hitting.hitting_times g 0 in
  List.iter
    (fun v ->
      check
        (Printf.sprintf "commute(0,%d)" v)
        (2.0 *. m *. float_of_int dist.(v))
        ((Hitting.hitting_times g v).(0) +. to_root.(v)))
    [ 1; 4; 10; 14 ]

let test_invalid () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  (try
     ignore (Hitting.hitting_times g 0);
     Alcotest.fail "disconnected accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Hitting.hitting_times (Gen.path 3) 5);
    Alcotest.fail "bad target accepted"
  with Invalid_argument _ -> ()

let test_single_vertex () =
  let g = Graph.of_edges ~n:1 [] in
  Alcotest.(check (array (float 1e-12))) "trivial" [| 0.0 |] (Hitting.hitting_times g 0)

let test_meeting_time_k2_lazy () =
  (* two lazy walks on K2 meet when exactly one of them moves: probability
     1/2 per round, so the meeting time is 2 *)
  let g = Gen.complete 2 in
  check "lazy K2" 2.0 (Hitting.max_meeting_time ~lazy_walk:true g)

let test_meeting_time_k2_nonlazy_singular () =
  let g = Gen.complete 2 in
  try
    ignore (Hitting.max_meeting_time g);
    Alcotest.fail "parity trap not detected"
  with Invalid_argument _ -> ()

let test_meeting_time_k3 () =
  (* two walks on K3 from distinct vertices collide with probability 1/4
     per round: meeting time 4 *)
  let g = Gen.complete 3 in
  check "K3" 4.0 (Hitting.max_meeting_time g)

let test_meeting_time_guard () =
  let g = Gen.cycle 50 in
  try
    ignore (Hitting.max_meeting_time ~max_n:40 g);
    Alcotest.fail "size guard not applied"
  with Invalid_argument _ -> ()

(* Engine.meet_exchange, run as a walk-time meter.  One agent placed with
   [All_at (start, 1)] away from the source learns the rumour when it
   first stands on the source, so the run's broadcast time is the walk's
   hitting time of the source.  Non-lazy walks throughout, to match
   [Hitting]'s default. *)
let hitting_run rng g ~start ~target =
  let r =
    Engine.meet_exchange ~lazy_walk:false rng g ~source:target
      ~agents:(Placement.All_at (start, 1)) ~max_rounds:100_000 ()
  in
  Rumor_protocols.Run_result.time_exn r

let mean_hitting_run ~seed ~trials g ~start ~target =
  let rng = Rng.of_int seed in
  let total = ref 0 in
  for _ = 1 to trials do
    total := !total + hitting_run rng g ~start ~target
  done;
  float_of_int !total /. float_of_int trials

let test_simulation_matches_exact_hitting () =
  (* the round kernel's walk time must match the solved value; this
     validates the walk step and Rng end to end against ground truth *)
  let g = Gen.complete 8 in
  let exact = (Hitting.hitting_times g 7).(0) in
  let empirical = mean_hitting_run ~seed:401 ~trials:4000 g ~start:0 ~target:7 in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.2f vs exact %.2f" empirical exact)
    true
    (Float.abs (empirical -. exact) < 0.1 *. exact)

let test_simulation_matches_exact_on_path () =
  let g = Gen.path 6 in
  let exact = (Hitting.hitting_times g 0).(5) in
  let empirical = mean_hitting_run ~seed:402 ~trials:3000 g ~start:5 ~target:0 in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.2f vs exact %.2f" empirical exact)
    true
    (Float.abs (empirical -. exact) < 0.1 *. exact)

let test_simulation_matches_exact_meeting () =
  (* two stationary agents on K5 with the source under agent 0: round 0
     informs agent 0 alone when they start apart, the source then stops
     informing, and agent 1 learns the rumour when the two walks meet, so
     the broadcast time is their meeting time.  The kernel places its
     agents with its first draws, so a copy of the generator shows where
     they will start; runs that start together are skipped.  On K5 the
     meeting time is the same from every distinct pair by symmetry, so the
     max over pairs equals the pairwise value. *)
  let g = Gen.complete 5 in
  let exact = Hitting.max_meeting_time g in
  let rng = Rng.of_int 403 in
  let agents = Placement.Stationary 2 in
  let trials = 4000 in
  let total = ref 0 and runs = ref 0 in
  while !runs < trials do
    let pos = Placement.place (Rng.copy rng) agents g in
    if pos.(0) = pos.(1) then ignore (Placement.place rng agents g)
    else begin
      let r =
        Engine.meet_exchange ~lazy_walk:false rng g ~source:pos.(0) ~agents
          ~max_rounds:100_000 ()
      in
      Alcotest.(check int) "round 0 informs agent 0 alone" 1
        r.Rumor_protocols.Run_result.informed_curve.(0);
      total := !total + Rumor_protocols.Run_result.time_exn r;
      incr runs
    end
  done;
  let empirical = float_of_int !total /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.2f vs exact %.2f" empirical exact)
    true
    (Float.abs (empirical -. exact) < 0.1 *. exact)

(* on random connected graphs (a random tree plus random chords) the
   solution satisfies the walk's one-step equations: h(target) = 0 and
   h(v) = 1 + the mean of h over v's neighbours; the lazy walk's times are
   twice these *)
let prop_one_step_equations =
  QCheck.Test.make ~count:100 ~name:"hitting times solve the one-step equations"
    QCheck.(triple (int_range 2 16) (int_range 0 20) int)
    (fun (n, chords, seed) ->
      let rng = Rng.of_int seed in
      let edges = Hashtbl.create 32 in
      let add u v = if u <> v then Hashtbl.replace edges (min u v, max u v) () in
      for v = 1 to n - 1 do
        add (Rng.int rng v) v
      done;
      for _ = 1 to chords do
        add (Rng.int rng n) (Rng.int rng n)
      done;
      let g = Graph.of_edges ~n (Hashtbl.fold (fun e () acc -> e :: acc) edges []) in
      let target = Rng.int rng n in
      let h = Hitting.hitting_times g target in
      let lazy_h = Hitting.hitting_times ~lazy_walk:true g target in
      let close a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs a) in
      let ok = ref (Float.equal h.(target) 0.0) in
      for v = 0 to n - 1 do
        if v <> target then begin
          let sum = Graph.fold_neighbors g v (fun acc w -> acc +. h.(w)) 0.0 in
          let deg = float_of_int (Graph.degree g v) in
          if not (close h.(v) (1.0 +. (sum /. deg))) then ok := false
        end;
        if not (close lazy_h.(v) (2.0 *. h.(v))) then ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "path closed form" `Quick test_path_closed_form;
    Alcotest.test_case "simulation matches exact meeting time" `Quick
      test_simulation_matches_exact_meeting;
    Alcotest.test_case "cycle closed form" `Quick test_cycle_closed_form;
    Alcotest.test_case "complete closed form" `Quick test_complete_closed_form;
    Alcotest.test_case "star closed form" `Quick test_star_closed_form;
    Alcotest.test_case "lazy walk doubles hitting times" `Quick test_lazy_doubles;
    Alcotest.test_case "commute time on a tree" `Quick test_commute_time_on_tree;
    Alcotest.test_case "invalid inputs" `Quick test_invalid;
    Alcotest.test_case "single vertex" `Quick test_single_vertex;
    Alcotest.test_case "meeting time lazy K2" `Quick test_meeting_time_k2_lazy;
    Alcotest.test_case "meeting time non-lazy K2 singular" `Quick
      test_meeting_time_k2_nonlazy_singular;
    Alcotest.test_case "meeting time K3" `Quick test_meeting_time_k3;
    Alcotest.test_case "meeting time size guard" `Quick test_meeting_time_guard;
    Alcotest.test_case "simulation matches exact (clique)" `Quick
      test_simulation_matches_exact_hitting;
    Alcotest.test_case "simulation matches exact (path)" `Quick
      test_simulation_matches_exact_on_path;
    QCheck_alcotest.to_alcotest prop_one_step_equations;
  ]
