(* Tests for Rumor_protocols.Sparse_walkers: exact conservation, occupied
   list canonicalization, and occupancy stationarity. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Gen_random = Rumor_graph.Gen_random
module Placement = Rumor_agents.Placement
module SW = Rumor_protocols.Sparse_walkers

let check_invariants t g =
  let n = Graph.n g in
  let total = ref 0 in
  let occ_set = Array.make n false in
  let prev = ref (-1) in
  for i = 0 to SW.occupied_count t - 1 do
    let v = SW.occupied_vertex t i in
    if v <= !prev then Alcotest.failf "occupied list not ascending at %d" i;
    prev := v;
    occ_set.(v) <- true;
    let c = SW.uninformed_at t v + SW.informed_at t v in
    if c <= 0 then Alcotest.failf "occupied vertex %d holds no walkers" v;
    total := !total + c
  done;
  for v = 0 to n - 1 do
    if (not occ_set.(v)) && SW.uninformed_at t v + SW.informed_at t v > 0 then
      Alcotest.failf "vertex %d occupied but missing from the list" v
  done;
  Alcotest.(check int) "walkers conserved" (SW.agent_count t) !total

let test_conservation () =
  let rng = Rng.of_int 91 in
  List.iter
    (fun (g, lazy_walk) ->
      let t = SW.create ~lazy_walk rng g (Placement.Linear 1.5) in
      check_invariants t g;
      for _ = 1 to 30 do
        SW.step rng t;
        check_invariants t g
      done)
    [
      (Gen.complete 16, false);
      (Gen.torus ~rows:6 ~cols:6, false);
      (Gen.path 12, true);
      (Gen_random.random_regular_connected (Rng.of_int 92) ~n:40 ~d:3, true);
    ]

let test_inform_all_at () =
  let g = Gen.complete 8 in
  let rng = Rng.of_int 93 in
  let t = SW.create ~lazy_walk:false rng g (Placement.All_at (3, 10)) in
  Alcotest.(check int) "all uninformed at 3" 10 (SW.uninformed_at t 3);
  Alcotest.(check int) "converted" 10 (SW.inform_all_at t 3);
  Alcotest.(check int) "none left" 0 (SW.uninformed_at t 3);
  Alcotest.(check int) "now informed" 10 (SW.informed_at t 3);
  Alcotest.(check int) "idempotent" 0 (SW.inform_all_at t 3);
  (* informed mass is conserved by stepping too *)
  for _ = 1 to 10 do
    SW.step rng t
  done;
  let inf = ref 0 in
  for i = 0 to SW.occupied_count t - 1 do
    inf := !inf + SW.informed_at t (SW.occupied_vertex t i)
  done;
  Alcotest.(check int) "informed conserved" 10 !inf

(* On a regular graph the uniform occupancy is stationary: averaged over
   rounds, every vertex should hold ~k/n walkers.  With k = 50n and 200
   rounds the per-vertex mean concentrates tightly. *)
let test_occupancy_stationarity () =
  let n = 24 in
  let g = Gen.cycle n in
  let rng = Rng.of_int 94 in
  let k = 50 * n in
  let t = SW.create ~lazy_walk:true rng g (Placement.Stationary k) in
  let rounds = 200 in
  let acc = Array.make n 0 in
  for _ = 1 to rounds do
    SW.step rng t;
    for i = 0 to SW.occupied_count t - 1 do
      let v = SW.occupied_vertex t i in
      acc.(v) <- acc.(v) + SW.uninformed_at t v + SW.informed_at t v
    done
  done;
  let expected = float_of_int k /. float_of_int n in
  Array.iteri
    (fun v s ->
      let mean = float_of_int s /. float_of_int rounds in
      if Float.abs (mean -. expected) > 0.15 *. expected then
        Alcotest.failf "vertex %d mean occupancy %.1f, expected %.1f" v mean
          expected)
    acc

let test_create_invalid () =
  let star9 = Gen.star ~leaves:8 in
  (try
     ignore
       (SW.create ~lazy_walk:false (Rng.of_int 95) star9 (Placement.Stationary 0));
     Alcotest.fail "zero agents accepted"
   with Invalid_argument _ -> ());
  (* a graph with an isolated vertex: 0-1 edge plus isolated 2 *)
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  try
    ignore
      (SW.create ~lazy_walk:false (Rng.of_int 96) g (Placement.All_at (2, 4)));
    Alcotest.fail "isolated-vertex placement accepted"
  with Invalid_argument _ -> ()

let test_mode_strings () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "round trip" true
        (SW.mode_of_string (SW.mode_to_string m) = Some m))
    [ SW.Dense; SW.Sparse; SW.Auto ];
  Alcotest.(check bool) "unknown" true (SW.mode_of_string "bogus" = None)

let test_use_sparse () =
  let g = Gen.complete 10 in
  Alcotest.(check bool) "dense" false
    (SW.use_sparse SW.Dense (Placement.Stationary 1_000_000) g);
  Alcotest.(check bool) "sparse" true
    (SW.use_sparse SW.Sparse (Placement.Stationary 1) g);
  Alcotest.(check bool) "auto small" false
    (SW.use_sparse SW.Auto (Placement.Stationary (SW.auto_threshold - 1)) g);
  Alcotest.(check bool) "auto large" true
    (SW.use_sparse SW.Auto (Placement.Stationary SW.auto_threshold) g)

let suite =
  [
    Alcotest.test_case "conservation and canonical occupancy" `Quick
      test_conservation;
    Alcotest.test_case "inform_all_at" `Quick test_inform_all_at;
    Alcotest.test_case "occupancy stationarity on regular" `Quick
      test_occupancy_stationarity;
    Alcotest.test_case "create validation" `Quick test_create_invalid;
    Alcotest.test_case "mode strings" `Quick test_mode_strings;
    Alcotest.test_case "use_sparse resolution" `Quick test_use_sparse;
  ]
