(* Tests for Rumor_sim.Graph_spec. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Graph_spec = Rumor_sim.Graph_spec

let parse_exn text = Result.get_ok (Graph_spec.parse text)

let build text =
  Graph_spec.build (Rng.of_int 1) (parse_exn text)

let test_families_build () =
  List.iter
    (fun (text, expect_n) ->
      let g, source = build text in
      Alcotest.(check int) (text ^ " size") expect_n (Graph.n g);
      Alcotest.(check bool) (text ^ " source in range") true
        (source >= 0 && source < Graph.n g))
    [
      ("complete:7", 7);
      ("path:9", 9);
      ("cycle:5", 5);
      ("star:10", 11);
      ("double-star:10", 22);
      ("tree:4", 15);
      ("heavy-tree:4", 15);
      ("siamese:4", 29);
      ("csc:3", 39);
      ("grid:3x4", 12);
      ("torus:3x5", 15);
      ("hypercube:5", 32);
      ("necklace:3x4", 12);
      ("barbell:4,2", 10);
      ("lollipop:4,3", 7);
      ("random-regular:20,3", 20);
      ("er:30,0.2", 30);
      ("gnm:10,12", 10);
      ("ba:50,3", 50);
    ]

let test_default_sources () =
  (* the paper families use their lemma's source *)
  let _, star_source = build "star:5" in
  Alcotest.(check int) "star source = center" 0 star_source;
  let g, ds_source = build "double-star:5" in
  Alcotest.(check int) "double-star source is a leaf" 1 (Graph.degree g ds_source);
  let g, ht_source = build "heavy-tree:4" in
  Alcotest.(check bool) "heavy-tree source is a clique leaf" true
    (Graph.degree g ht_source = 8)

let test_case_insensitive_family () =
  match Graph_spec.parse "Star:4" with
  | Ok s -> Alcotest.(check string) "canonical" "star:4" (Graph_spec.to_string s)
  | Error m -> Alcotest.fail m

let test_roundtrip_to_string () =
  List.iter
    (fun text ->
      let s = parse_exn text in
      Alcotest.(check string) "canonical form" text (Graph_spec.to_string s))
    [ "complete:7"; "grid:3x4"; "random-regular:20,3"; "er:30,0.2"; "csc:3" ]

let test_is_random () =
  Alcotest.(check bool) "random-regular" true
    (Graph_spec.is_random (parse_exn "random-regular:10,3"));
  Alcotest.(check bool) "er" true (Graph_spec.is_random (parse_exn "er:10,0.5"));
  Alcotest.(check bool) "ba" true (Graph_spec.is_random (parse_exn "ba:10,2"));
  Alcotest.(check bool) "star" false (Graph_spec.is_random (parse_exn "star:5"))

let test_parse_errors () =
  List.iter
    (fun text ->
      match Graph_spec.parse text with
      | Ok _ -> Alcotest.failf "%S accepted" text
      | Error m -> Alcotest.(check bool) "message non-empty" true (String.length m > 0))
    [ "unknown:3"; "star"; "star:x"; "grid:3"; "grid:3,4"; "er:10"; "random-regular:10" ]

let test_random_spec_uses_rng () =
  let spec = parse_exn "random-regular:30,3" in
  let g1, _ = Graph_spec.build (Rng.of_int 1) spec in
  let g2, _ = Graph_spec.build (Rng.of_int 2) spec in
  let differs = ref false in
  Graph.iter_edges g1 (fun u v -> if not (Graph.mem_edge g2 u v) then differs := true);
  Alcotest.(check bool) "different seeds, different graphs" true !differs

(* [families] is the help text's list: each family the parser accepts is in
   it once, and the unknown-family message names them all *)
let test_families_listed () =
  let sorted = List.sort_uniq String.compare Graph_spec.families in
  Alcotest.(check int) "no duplicates" (List.length Graph_spec.families) (List.length sorted);
  List.iter
    (fun text ->
      let family = List.hd (String.split_on_char ':' text) in
      Alcotest.(check bool) (family ^ " listed") true (List.mem family Graph_spec.families))
    [
      "complete:7"; "path:9"; "cycle:5"; "star:10"; "double-star:10"; "tree:4"; "heavy-tree:4";
      "siamese:4"; "csc:3"; "grid:3x4"; "torus:3x5"; "hypercube:5"; "necklace:3x4"; "barbell:4,2";
      "lollipop:4,3"; "random-regular:20,3"; "er:30,0.2"; "gnm:10,12"; "ba:50,3";
    ];
  match Graph_spec.parse "unknown:3" with
  | Ok _ -> Alcotest.fail "unknown family accepted"
  | Error msg ->
      List.iter
        (fun family ->
          let needle = family ^ "," and last = family ^ ")" in
          let contains n =
            let ln = String.length n and lm = String.length msg in
            let rec go i = i + ln <= lm && (String.sub msg i ln = n || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) (family ^ " in the message") true (contains needle || contains last))
        Graph_spec.families

let suite =
  [
    Alcotest.test_case "all families build" `Quick test_families_build;
    Alcotest.test_case "default sources" `Quick test_default_sources;
    Alcotest.test_case "case-insensitive family" `Quick test_case_insensitive_family;
    Alcotest.test_case "to_string roundtrip" `Quick test_roundtrip_to_string;
    Alcotest.test_case "is_random" `Quick test_is_random;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "random specs use the rng" `Quick test_random_spec_uses_rng;
    Alcotest.test_case "families listed" `Quick test_families_listed;
  ]
