(* Tests for Rumor_graph.Graph: CSR construction and accessors. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph

let triangle () = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ]

let test_counts () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.num_edges g);
  Alcotest.(check int) "total degree" 6 (Graph.total_degree g);
  Alcotest.(check int) "arc count" 6 (Graph.arc_count g)

let test_degrees_and_neighbors () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check int) "hub degree" 3 (Graph.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (Graph.degree g 2);
  Alcotest.(check (list int)) "sorted neighbors" [ 1; 2; 3 ]
    (List.init (Graph.degree g 0) (Graph.neighbor g 0));
  Alcotest.(check int) "leaf neighbor" 0 (Graph.neighbor g 3 0)

let test_mem_edge () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (3, 4) ] in
  Alcotest.(check bool) "present" true (Graph.mem_edge g 1 2);
  Alcotest.(check bool) "symmetric" true (Graph.mem_edge g 2 1);
  Alcotest.(check bool) "absent" false (Graph.mem_edge g 0 4);
  Alcotest.(check bool) "no self" false (Graph.mem_edge g 3 3)

let test_iter_edges_each_once () =
  let g = triangle () in
  let seen = ref [] in
  Graph.iter_edges g (fun u v ->
      Alcotest.(check bool) "u < v" true (u < v);
      seen := (u, v) :: !seen);
  Alcotest.(check int) "edge count" 3 (List.length !seen);
  Alcotest.(check bool) "all distinct" true
    (List.length
       (List.sort_uniq
          (fun (u1, v1) (u2, v2) ->
            match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c)
          !seen)
    = 3)

let test_fold_and_iter_neighbors () =
  let g = Graph.of_edges ~n:4 [ (1, 0); (1, 2); (1, 3) ] in
  let sum = Graph.fold_neighbors g 1 ( + ) 0 in
  Alcotest.(check int) "fold sum" 5 sum;
  let collected = ref [] in
  Graph.iter_neighbors g 1 (fun v -> collected := v :: !collected);
  Alcotest.(check (list int)) "iter order is sorted" [ 0; 2; 3 ] (List.rev !collected)

let test_edge_index_distinct () =
  let g = triangle () in
  let indices = ref [] in
  for u = 0 to 2 do
    Graph.iter_neighbors g u (fun v -> indices := Graph.edge_index g u v :: !indices)
  done;
  let distinct = List.sort_uniq Int.compare !indices in
  Alcotest.(check int) "one index per directed arc" 6 (List.length distinct);
  List.iter
    (fun i ->
      if i < 0 || i >= Graph.arc_count g then Alcotest.failf "index %d out of range" i)
    distinct

let test_edge_index_not_found () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  Alcotest.check_raises "missing edge" Not_found (fun () ->
      ignore (Graph.edge_index g 0 2))

let test_random_neighbor_uniform () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  let rng = Rng.of_int 51 in
  let counts = Array.make 4 0 in
  let samples = 30_000 in
  for _ = 1 to samples do
    let v = Graph.random_neighbor g rng 0 in
    counts.(v) <- counts.(v) + 1
  done;
  Alcotest.(check int) "never itself" 0 counts.(0);
  for v = 1 to 3 do
    let p = float_of_int counts.(v) /. float_of_int samples in
    if Float.abs (p -. (1.0 /. 3.0)) > 0.02 then
      Alcotest.failf "neighbor %d frequency %.3f" v p
  done

let test_random_neighbor_isolated () =
  let g = Graph.of_edges ~n:2 [] in
  let rng = Rng.of_int 52 in
  try
    ignore (Graph.random_neighbor g rng 0);
    Alcotest.fail "isolated vertex accepted"
  with Invalid_argument _ -> ()

let test_rejects_self_loop () =
  try
    ignore (Graph.of_edges ~n:2 [ (1, 1) ]);
    Alcotest.fail "self-loop accepted"
  with Invalid_argument _ -> ()

let test_rejects_duplicate () =
  (try
     ignore (Graph.of_edges ~n:3 [ (0, 1); (0, 1) ]);
     Alcotest.fail "duplicate accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Graph.of_edges ~n:3 [ (0, 1); (1, 0) ]);
    Alcotest.fail "reversed duplicate accepted"
  with Invalid_argument _ -> ()

let test_rejects_out_of_range () =
  try
    ignore (Graph.of_edges ~n:3 [ (0, 3) ]);
    Alcotest.fail "out-of-range endpoint accepted"
  with Invalid_argument _ -> ()

let test_regularity () =
  let g = triangle () in
  Alcotest.(check (option int)) "degree 2" (Some 2) (Graph.regular_degree g);
  let star = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  Alcotest.(check (option int)) "no regular degree" None (Graph.regular_degree star);
  Alcotest.(check int) "min degree" 1 (Graph.min_degree star);
  (* max_degree and is_regular reach callers through pp *)
  let shown g = Format.asprintf "%a" Graph.pp g in
  Alcotest.(check string) "triangle pp" "graph(n=3, m=3, deg=[2..2], regular)"
    (shown g);
  Alcotest.(check string) "star pp" "graph(n=4, m=3, deg=[1..3])" (shown star)

(* arc_head inverts edge_index, so vertex v heads exactly deg v arcs *)
let test_arc_head () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (3, 4) ] in
  let heads = Array.make (Graph.n g) 0 in
  for i = 0 to Graph.arc_count g - 1 do
    let v = Graph.arc_head g i in
    heads.(v) <- heads.(v) + 1
  done;
  Alcotest.(check (array int)) "arcs per head = degrees" [| 3; 1; 1; 2; 1 |] heads;
  Graph.iter_edges g (fun u v ->
      Alcotest.(check int) "head of u -> v" v (Graph.arc_head g (Graph.edge_index g u v));
      Alcotest.(check int) "head of v -> u" u (Graph.arc_head g (Graph.edge_index g v u)))

let test_validate_accepts_generators () =
  Graph.validate (triangle ());
  Graph.validate (Rumor_graph.Gen_basic.complete 8);
  Graph.validate (Rumor_graph.Gen_basic.hypercube ~dim:5);
  Graph.validate (Rumor_graph.Gen_basic.torus ~rows:4 ~cols:5)

let test_empty_graph () =
  let g = Graph.of_edges ~n:1 [] in
  Alcotest.(check int) "n" 1 (Graph.n g);
  Alcotest.(check int) "m" 0 (Graph.num_edges g);
  Graph.validate g

let prop_random_graph_validates =
  QCheck.Test.make ~count:50 ~name:"random gnm graphs validate"
    QCheck.(pair (int_range 2 40) small_nat)
    (fun (n, seed) ->
      let rng = Rng.of_int seed in
      let max_m = n * (n - 1) / 2 in
      let m = Rng.int rng (max_m + 1) in
      let g = Rumor_graph.Gen_random.gnm rng ~n ~m in
      Graph.validate g;
      Graph.num_edges g = m
      && Graph.total_degree g = 2 * m)

(* --- streaming Builder ------------------------------------------------ *)

let test_builder_matches_of_edges () =
  let edges = [ (3, 1); (0, 4); (1, 0); (2, 4); (0, 2) ] in
  let b = Graph.Builder.create ~n:5 () in
  List.iter (fun (u, v) -> Graph.Builder.add_edge b u v) edges;
  Csr_check.same "builder = of_edges" (Graph.of_edges ~n:5 edges) (Graph.Builder.finish b)

let test_builder_grows_past_capacity () =
  (* capacity is only a hint: push far more edges than the initial buffers *)
  let n = 40 in
  let b = Graph.Builder.create ~capacity:2 ~n () in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      Graph.Builder.add_edge b u v;
      edges := (u, v) :: !edges
    done
  done;
  Csr_check.same "grown builder = of_edges" (Graph.of_edges ~n !edges)
    (Graph.Builder.finish b)

let test_builder_rejects_bad_edges () =
  let b = Graph.Builder.create ~n:4 () in
  let rejects u v =
    try
      Graph.Builder.add_edge b u v;
      Alcotest.fail (Printf.sprintf "accepted edge (%d, %d)" u v)
    with Invalid_argument _ -> ()
  in
  rejects 1 1;
  rejects (-1) 2;
  rejects 0 4

let test_builder_rejects_duplicate_at_finish () =
  let b = Graph.Builder.create ~n:3 () in
  Graph.Builder.add_edge b 0 1;
  Graph.Builder.add_edge b 1 0;
  try
    ignore (Graph.Builder.finish b);
    Alcotest.fail "duplicate edge accepted"
  with Invalid_argument _ -> ()

let builder_of n edges =
  let b = Graph.Builder.create ~n () in
  List.iter (fun (u, v) -> Graph.Builder.add_edge b u v) edges;
  Graph.Builder.finish b

let star_edges leaves = List.map (fun v -> (0, v)) leaves

(* 40 hub slots that rise and then fall *)
let rise_and_fall = List.init 20 (fun i -> i + 1) @ List.init 20 (fun i -> 40 - i)

(* a repeated edge must be caught whether its slice arrives ascending
   (finish's sort-free path) or descends somewhere, short or long *)
let test_builder_rejects_hidden_duplicates () =
  List.iter
    (fun (label, n, edges) ->
      match builder_of n edges with
      | _ -> Alcotest.failf "%s: duplicate accepted" label
      | exception Invalid_argument _ -> ())
    [
      ("ascending pair", 3, [ (0, 1); (0, 1) ]);
      ("ascending triple", 3, [ (0, 1); (0, 2); (0, 2) ]);
      ("short, after a descent", 4, star_edges [ 2; 3; 1; 3 ]);
      ("long, after a descent", 41, star_edges (rise_and_fall @ [ 7 ]));
    ]

(* short slices finish the insertion sort from their first descent, long
   ones (> 32 slots) go through the scratch sort *)
let test_builder_sorts_partly_sorted_slices () =
  let hub_neighbours leaves =
    let g = builder_of (List.length leaves + 1) (star_edges leaves) in
    Graph.validate g;
    List.init (Graph.degree g 0) (Graph.neighbor g 0)
  in
  Alcotest.(check (list int)) "short slice" [ 1; 2; 3; 4; 5; 6 ]
    (hub_neighbours [ 1; 3; 5; 2; 6; 4 ]);
  Alcotest.(check (list int)) "long slice, rising then falling"
    (List.init 40 (fun i -> i + 1))
    (hub_neighbours rise_and_fall);
  Alcotest.(check (list int)) "long slice, falling"
    (List.init 40 (fun i -> i + 1))
    (hub_neighbours (List.init 40 (fun i -> 40 - i)))

let test_builder_single_use () =
  let b = Graph.Builder.create ~n:2 () in
  Graph.Builder.add_edge b 0 1;
  ignore (Graph.Builder.finish b);
  (try
     Graph.Builder.add_edge b 0 1;
     Alcotest.fail "add_edge after finish accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Graph.Builder.finish b);
    Alcotest.fail "second finish accepted"
  with Invalid_argument _ -> ()

let test_builder_edgeless () =
  let g = Graph.Builder.finish (Graph.Builder.create ~n:6 ()) in
  Alcotest.(check int) "n" 6 (Graph.n g);
  Alcotest.(check int) "m" 0 (Graph.num_edges g)

(* vertex ids live in 24-bit slots: n <= 2^24.  Every constructor refuses
   a larger n up front, before sizing anything by it *)
let test_vertex_limit () =
  let too_many = (1 lsl 24) + 1 in
  let refuses label f =
    match f () with
    | _ -> Alcotest.failf "%s accepted n = 2^24 + 1" label
    | exception Invalid_argument _ -> ()
  in
  refuses "Builder.create" (fun () -> ignore (Graph.Builder.create ~n:too_many ()));
  refuses "of_edges" (fun () -> ignore (Graph.of_edges ~n:too_many [ (0, 1) ]));
  Alcotest.check_raises "of_csr"
    (Invalid_argument "Graph.of_csr: vertex count out of range") (fun () ->
      ignore (Graph.of_csr ~n:too_many ~offsets:[| 0 |] ~slots:(Graph.Slots.create 0)));
  Alcotest.check_raises "of_upper_rows"
    (Invalid_argument "Graph.of_upper_rows: vertex count out of range") (fun () ->
      ignore
        (Graph.of_upper_rows ~n:too_many ~row_ends:[| 0 |]
           ~cols:(Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout 0)));
  (* the largest n is accepted, and so is its last vertex id; [finish] is
     not called, it would size the offsets by n *)
  let b = Graph.Builder.create ~n:(1 lsl 24) () in
  Graph.Builder.add_edge b 0 ((1 lsl 24) - 1)

let test_csr_bytes () =
  List.iter
    (fun g ->
      let n = Graph.n g and m = Graph.num_edges g in
      Alcotest.(check int)
        (Format.asprintf "%a: 8(n+1) + 3 bytes per slot + 1 pad byte" Graph.pp g)
        ((8 * (n + 1)) + (3 * 2 * m) + 1)
        (Graph.csr_bytes g))
    [
      Graph.of_edges ~n:0 [];
      Graph.of_edges ~n:5 [];
      triangle ();
      Rumor_graph.Gen_basic.complete 30;
      Rumor_graph.Gen_random.gnm (Rng.of_int 3) ~n:1000 ~m:4000;
    ]

(* on random graphs too, arc i runs from the vertex whose CSR range holds
   slot i to arc_head i: edge_index of that pair is i again, and every
   vertex heads as many arcs as its degree *)
let prop_arc_head_inverts_edge_index =
  QCheck.Test.make ~count:100 ~name:"arc_head inverts edge_index on random graphs"
    QCheck.(triple (int_range 1 40) (int_range 0 200) small_nat)
    (fun (n, m, seed) ->
      let m = min m (n * (n - 1) / 2) in
      let g = Rumor_graph.Gen_random.gnm (Rng.of_int seed) ~n ~m in
      let heads = Array.make n 0 in
      for u = 0 to n - 1 do
        Graph.iter_neighbors g u (fun v ->
            let i = Graph.edge_index g u v in
            if Graph.arc_head g i <> v then
              QCheck.Test.fail_reportf "arc_head (edge_index %d %d) = %d" u v
                (Graph.arc_head g i);
            heads.(v) <- heads.(v) + 1)
      done;
      Array.for_all Fun.id (Array.mapi (fun v h -> h = Graph.degree g v) heads)
      && Array.fold_left ( + ) 0 heads = Graph.arc_count g)

(* random edge lists, each edge in a random orientation, through both
   constructors; every accessor must agree with a sorted adjacency list *)
let prop_csr_matches_reference =
  QCheck.Test.make ~count:200 ~name:"CSR accessors match a reference adjacency list"
    QCheck.(
      pair (int_range 1 40)
        (list_of_size (Gen.int_range 0 300) (pair (int_bound 1_000) (int_bound 1_000))))
    (fun (n, raw) ->
      let seen = Hashtbl.create 64 in
      let edges =
        List.filter_map
          (fun (a, b) ->
            let u = a mod n and v = b mod n in
            let key = (min u v, max u v) in
            if u = v || Hashtbl.mem seen key then None
            else begin
              Hashtbl.add seen key ();
              Some (u, v)
            end)
          raw
      in
      let reference = Array.make n [] in
      List.iter
        (fun (u, v) ->
          reference.(u) <- v :: reference.(u);
          reference.(v) <- u :: reference.(v))
        edges;
      let reference = Array.map (List.sort Int.compare) reference in
      let from_builder =
        let b = Graph.Builder.create ~capacity:1 ~n () in
        List.iter (fun (u, v) -> Graph.Builder.add_edge b u v) edges;
        Graph.Builder.finish b
      in
      let check g =
        Graph.validate g;
        let offset = ref 0 in
        for u = 0 to n - 1 do
          let nbrs = reference.(u) in
          if Graph.degree g u <> List.length nbrs then
            QCheck.Test.fail_reportf "degree %d" u;
          if List.init (Graph.degree g u) (Graph.neighbor g u) <> nbrs then
            QCheck.Test.fail_reportf "neighbours of %d" u;
          if List.rev (Graph.fold_neighbors g u (fun acc v -> v :: acc) []) <> nbrs then
            QCheck.Test.fail_reportf "fold_neighbors %d" u;
          for v = 0 to n - 1 do
            let want =
              let rec position i = function
                | [] -> None
                | w :: rest -> if w = v then Some (!offset + i) else position (i + 1) rest
              in
              position 0 nbrs
            in
            if Graph.mem_edge g u v <> Option.is_some want then
              QCheck.Test.fail_reportf "mem_edge %d %d" u v;
            match (want, Graph.edge_index g u v) with
            | Some i, j when i = j -> ()
            | _, j -> QCheck.Test.fail_reportf "edge_index %d %d = %d" u v j
            | exception Not_found ->
                if want <> None then QCheck.Test.fail_reportf "edge_index %d %d" u v
          done;
          offset := !offset + List.length nbrs
        done;
        let listed = ref [] in
        Graph.iter_edges g (fun u v -> listed := (u, v) :: !listed);
        let by_pair (u1, v1) (u2, v2) =
          match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c
        in
        List.sort by_pair !listed
        = List.sort by_pair (List.map (fun (u, v) -> (min u v, max u v)) edges)
      in
      check (Graph.of_edges ~n edges) && check from_builder)

(* --- the Builder's ascending fast path, and the BFS walks ------------- *)

(* a random small graph: n in [1, 30], raw endpoint pairs that
   [ascending_edges] folds into distinct (u, v) edges with u < v, and a
   seed for reorderings *)
let edge_set =
  QCheck.(
    triple (int_range 1 30)
      (list_of_size (Gen.int_range 0 120) (pair (int_bound 1_000) (int_bound 1_000)))
      small_nat)

let ascending_edges n raw =
  List.filter_map
    (fun (a, b) ->
      let u = a mod n and v = b mod n in
      if u = v then None else Some (min u v, max u v))
    raw
  |> List.sort_uniq (fun (u1, v1) (u2, v2) ->
         match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c)

let is_duplicate_error = function
  | Invalid_argument m ->
      String.starts_with ~prefix:"Graph.Builder.finish: duplicate edge" m
  | _ -> false

(* [true] iff [finish] rejects the stream with the duplicate-edge error *)
let rejects_duplicate n edges =
  match builder_of n edges with
  | _ -> false
  | exception e when is_duplicate_error e -> true

(* the same edge set in ascending order (the sort-free path), shuffled with
   random orientations, and descending (both checked): one CSR *)
let prop_orders_give_same_csr =
  QCheck.Test.make ~count:200 ~name:"ascending, shuffled and descending streams agree"
    edge_set
    (fun (n, raw, seed) ->
      let asc = ascending_edges n raw in
      let rng = Rng.of_int seed in
      let shuffled =
        let a =
          Array.of_list
            (List.map (fun (u, v) -> if Rng.bool rng then (u, v) else (v, u)) asc)
        in
        for i = Array.length a - 1 downto 1 do
          let j = Rng.int rng (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list a
      in
      let reference = builder_of n asc in
      Csr_check.same "shuffled" reference (builder_of n shuffled);
      Csr_check.same "descending" reference (builder_of n (List.rev asc));
      Graph.num_edges reference = List.length asc)

(* an ascending stream that repeats its last edge fails the key check at
   the repeat, so it leaves the fast path and the duplicate is caught *)
let prop_ascending_repeat_rejected =
  QCheck.Test.make ~count:200 ~name:"ascending stream repeating its last edge is rejected"
    edge_set
    (fun (n, raw, _) ->
      match List.rev (ascending_edges n raw) with
      | [] -> QCheck.assume_fail ()
      | last :: _ as rev -> rejects_duplicate n (List.rev (last :: rev)))

(* one descent after an ascending prefix, then a repeat of an earlier edge
   that by itself looks ascending: the stream stays on the checked path,
   which catches the duplicate *)
let prop_descent_then_duplicate_rejected =
  QCheck.Test.make ~count:200 ~name:"a descent keeps the checked path; duplicates caught"
    edge_set
    (fun (n, raw, seed) ->
      let asc = Array.of_list (ascending_edges n raw) in
      let k = Array.length asc in
      if k < 2 then QCheck.assume_fail ()
      else begin
        (* drop edge j < k-1 from the prefix and add it after the last edge
           (a descent), then repeat the last edge: above edge j in key
           order, so the repeat alone looks ascending *)
        let j = Rng.int (Rng.of_int seed) (k - 1) in
        let prefix = List.filteri (fun i _ -> i <> j) (Array.to_list asc) in
        rejects_duplicate n (prefix @ [ asc.(j); asc.(k - 1) ])
      end)

let random_graph n raw = builder_of n (ascending_edges n raw)

let prop_connected_iff_one_component =
  QCheck.Test.make ~count:300 ~name:"is_connected iff component_count = 1" edge_set
    (fun (n, raw, _) ->
      let g = random_graph n raw in
      Rumor_graph.Algo.is_connected g = (Rumor_graph.Algo.component_count g = 1))

(* 2-colourable iff, with BFS distances taken from one root per component,
   no edge joins two vertices of the same parity *)
let prop_bipartite_iff_bfs_parity =
  QCheck.Test.make ~count:300 ~name:"is_bipartite agrees with BFS distance parity"
    edge_set
    (fun (n, raw, _) ->
      let module Algo = Rumor_graph.Algo in
      let g = random_graph n raw in
      let label = Algo.components g in
      let dist = Array.make n (-1) in
      Array.iteri
        (fun v c ->
          if dist.(v) < 0 then begin
            let d = Algo.bfs_distances g v in
            Array.iteri (fun w c' -> if c' = c then dist.(w) <- d.(w)) label
          end)
        label;
      let parity_ok = ref true in
      Graph.iter_edges g (fun u v ->
          if dist.(u) land 1 = dist.(v) land 1 then parity_ok := false);
      Algo.is_bipartite g = !parity_ok)

(* ----------------------------------------------------------- of_csr *)

let slots_of ids =
  let b = Graph.Slots.create (List.length ids) in
  List.iteri (Graph.Slots.set b) ids;
  b

(* the path 0 - 1 - 2: slices [1], [0; 2], [1] *)
let path3_offsets () = [| 0; 1; 3; 4 |]

let test_of_csr_accepts_path () =
  let g = Graph.of_csr ~n:3 ~offsets:(path3_offsets ()) ~slots:(slots_of [ 1; 0; 2; 1 ]) in
  Csr_check.same "path3" (Graph.of_edges ~n:3 [ (0, 1); (1, 2) ]) g;
  Alcotest.(check int) "min degree cached" 1 (Graph.min_degree g);
  Csr_check.same "edgeless" (Graph.of_edges ~n:0 [])
    (Graph.of_csr ~n:0 ~offsets:[| 0 |] ~slots:(Graph.Slots.create 0))

(* every malformed input raises the defect its documentation names *)
let test_of_csr_rejects () =
  let rejects what msg ~n ~offsets ids =
    Alcotest.check_raises what (Invalid_argument ("Graph.of_csr: " ^ msg)) (fun () ->
        ignore (Graph.of_csr ~n ~offsets ~slots:(slots_of ids)))
  in
  rejects "negative n" "vertex count out of range" ~n:(-1) ~offsets:[||] [];
  rejects "offsets length" "offsets length is not n + 1" ~n:3 ~offsets:[| 0; 1; 4 |]
    [ 1; 0; 2; 1 ];
  Alcotest.check_raises "slot buffer longer than the offsets"
    (Invalid_argument "Graph.of_csr: offsets do not run from 0 to the slot count")
    (fun () ->
      ignore (Graph.of_csr ~n:1 ~offsets:[| 0; 0 |] ~slots:(Graph.Slots.create 1)));
  rejects "offset endpoints" "offsets do not run from 0 to the slot count" ~n:3
    ~offsets:[| 0; 1; 3; 3 |] [ 1; 0; 2; 1 ];
  rejects "decreasing offsets" "decreasing offsets" ~n:3 ~offsets:[| 0; 3; 1; 4 |]
    [ 1; 0; 2; 1 ];
  rejects "id out of range" "neighbour 3 of 1 out of range" ~n:3
    ~offsets:(path3_offsets ()) [ 1; 0; 3; 1 ];
  (* a slot holds [0, 2^24) only: the writer refuses the rest *)
  List.iter
    (fun v ->
      Alcotest.check_raises
        (Printf.sprintf "slot id %d" v)
        (Invalid_argument (Printf.sprintf "Graph.Slots.set: id %d outside [0, 2^24)" v))
        (fun () -> ignore (slots_of [ v ])))
    [ -1; 1 lsl 24 ];
  rejects "self-loop" "self-loop at 1" ~n:3 ~offsets:(path3_offsets ()) [ 1; 1; 2; 1 ];
  rejects "unsorted slice" "unsorted slice of 1" ~n:3 ~offsets:(path3_offsets ())
    [ 1; 2; 0; 1 ];
  rejects "duplicate" "duplicate edge (1,0)" ~n:3 ~offsets:(path3_offsets ())
    [ 1; 0; 0; 1 ];
  (* 0 -> 1 and 1 -> 2 with no way back *)
  rejects "asymmetric arc" "arc 0 -> 1 has no reverse" ~n:3 ~offsets:[| 0; 1; 2; 2 |]
    [ 1; 2 ];
  (* 0 -> 2 and 2 -> 0 match, so the cursor walk has already consumed 2's
     one slot when it meets 1 -> 2 *)
  rejects "asymmetric, cursor at slice end" "arc 1 -> 2 has no reverse" ~n:4
    ~offsets:[| 0; 2; 3; 4; 5 |] [ 2; 3; 2; 0; 0 ]

(* The slot codec: ids written to a slot buffer in any order read back
   unchanged, so no write touches another slot's bytes.  The first and last
   slots take the ids whose bytes sit at the 16- and 24-bit edges. *)
let prop_slot_codec =
  let edge = QCheck.oneofl [ 0; (1 lsl 16) - 1; 1 lsl 16; (1 lsl 24) - 1 ] in
  QCheck.Test.make ~count:500 ~name:"slot ids written in any order read back unchanged"
    QCheck.(quad (list (int_bound ((1 lsl 24) - 1))) edge edge small_nat)
    (fun (middle, first, last, seed) ->
      let ids = Array.of_list ((first :: middle) @ [ last ]) in
      let k = Array.length ids in
      let order = Array.init k Fun.id in
      let g = Rng.of_int seed in
      let keys = Array.init k (fun _ -> Rng.bits64 g) in
      Array.sort (fun i j -> Int64.compare keys.(i) keys.(j)) order;
      let b = Graph.Slots.create k in
      Array.iter (fun i -> Graph.Slots.set b i ids.(i)) order;
      List.for_all (fun i -> Graph.Slots.get b i = ids.(i)) (List.init k Fun.id))

(* the CSR of every Builder graph, read back through first_arc and
   arc_head, passes of_csr and gives the same graph *)
let prop_builder_round_trips_of_csr =
  QCheck.Test.make ~count:200 ~name:"every Builder graph round-trips through of_csr"
    edge_set
    (fun (n, raw, _) ->
      let g = builder_of n (ascending_edges n raw) in
      let offsets = Array.init (n + 1) (Graph.first_arc g) in
      let slots = slots_of (List.init (Graph.arc_count g) (Graph.arc_head g)) in
      Csr_check.same "round trip" g (Graph.of_csr ~n ~offsets ~slots);
      true)

(* ---------------------------------------------------- of_upper_rows *)

let cols_of ids =
  let a = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout (List.length ids) in
  List.iteri (fun i v -> a.{i} <- Int32.of_int v) ids;
  a

(* each vertex's upper neighbours, as [of_upper_rows] takes them *)
let upper_rows_of g =
  let n = Graph.n g in
  let rows = List.init n (fun u -> List.filter (fun v -> v > u) (Csr_check.neighbours g u)) in
  let row_ends = Array.make (n + 1) 0 in
  List.iteri (fun u row -> row_ends.(u + 1) <- row_ends.(u) + List.length row) rows;
  (row_ends, cols_of (List.concat rows))

let test_of_upper_rows_accepts () =
  (* the triangle 0-1-2 with a pendant 3 on 1: rows [1; 2], [2; 3], [], [] *)
  let g = Graph.of_upper_rows ~n:4 ~row_ends:[| 0; 2; 4; 4; 4 |] ~cols:(cols_of [ 1; 2; 2; 3 ]) in
  Csr_check.same "triangle + pendant"
    (Graph.of_edges ~n:4 [ (0, 1); (0, 2); (1, 2); (1, 3) ])
    g;
  Alcotest.(check int) "min degree cached" 1 (Graph.min_degree g);
  Csr_check.same "edgeless" (Graph.of_edges ~n:0 [])
    (Graph.of_upper_rows ~n:0 ~row_ends:[| 0 |] ~cols:(cols_of []));
  Csr_check.same "isolated vertices" (Graph.of_edges ~n:3 [])
    (Graph.of_upper_rows ~n:3 ~row_ends:[| 0; 0; 0; 0 |] ~cols:(cols_of []))

(* every malformed input raises the one defect its documentation names *)
let test_of_upper_rows_rejects () =
  let rejects what msg ~n ~row_ends ids =
    Alcotest.check_raises what (Invalid_argument ("Graph.of_upper_rows: " ^ msg)) (fun () ->
        ignore (Graph.of_upper_rows ~n ~row_ends ~cols:(cols_of ids)))
  in
  rejects "negative n" "vertex count out of range" ~n:(-1) ~row_ends:[||] [];
  rejects "row_ends length" "row_ends length is not n + 1" ~n:3 ~row_ends:[| 0; 1; 2 |]
    [ 1; 2 ];
  rejects "row_ends short of the columns" "row_ends do not run from 0 to the column count"
    ~n:3 ~row_ends:[| 0; 1; 1; 1 |] [ 1; 2 ];
  rejects "row_ends past the columns" "row_ends do not run from 0 to the column count"
    ~n:3 ~row_ends:[| 0; 2; 3; 3 |] [ 1; 2 ];
  rejects "row_ends not from 0" "row_ends do not run from 0 to the column count" ~n:3
    ~row_ends:[| 1; 1; 2; 2 |] [ 1; 2 ];
  rejects "decreasing row_ends" "decreasing row_ends" ~n:3 ~row_ends:[| 0; 2; 1; 2 |]
    [ 1; 2 ];
  rejects "column >= n" "column 3 outside [0, 3)" ~n:3 ~row_ends:[| 0; 1; 2; 2 |] [ 1; 3 ];
  rejects "negative column" "column -1 outside [0, 3)" ~n:3 ~row_ends:[| 0; 1; 1; 1 |]
    [ -1 ];
  rejects "column = its row" "column 1 of row 1 is not above its row" ~n:3
    ~row_ends:[| 0; 1; 2; 2 |] [ 1; 1 ];
  rejects "column below its row" "column 0 of row 2 is not above its row" ~n:3
    ~row_ends:[| 0; 1; 1; 2 |] [ 1; 0 ];
  rejects "repeated column" "repeated column 2 in row 0" ~n:3 ~row_ends:[| 0; 2; 2; 2 |]
    [ 2; 2 ];
  rejects "descending row" "row 0 descends (1 after 2)" ~n:3 ~row_ends:[| 0; 2; 2; 2 |]
    [ 2; 1 ];
  (* a later row's defect, after earlier rows filled their slots *)
  rejects "descending later row" "row 1 descends (2 after 3)" ~n:4
    ~row_ends:[| 0; 3; 5; 5; 5 |] [ 1; 2; 3; 3; 2 ]

(* every Builder graph, handed over as its upper rows, comes back as the
   same CSR *)
let prop_builder_round_trips_of_upper_rows =
  QCheck.Test.make ~count:200 ~name:"every Builder graph round-trips through of_upper_rows"
    edge_set
    (fun (n, raw, _) ->
      let g = builder_of n (ascending_edges n raw) in
      let row_ends, cols = upper_rows_of g in
      Csr_check.same "round trip" g (Graph.of_upper_rows ~n ~row_ends ~cols);
      true)

(* [unsafe_random_neighbor] is [random_neighbor] without its checks: on
   every non-isolated vertex of a random graph (and of stars, whose centre
   degree reaches the edge count), the same neighbours from the same
   generator, and the same state afterwards *)
let prop_unsafe_random_neighbor_equals_checked =
  QCheck.Test.make ~count:200
    ~name:"unsafe_random_neighbor = random_neighbor, same state after"
    QCheck.(pair edge_set bool)
    (fun ((n, raw, seed), as_star) ->
      let g =
        if as_star then builder_of (n + 1) (star_edges (List.init n (fun i -> i + 1)))
        else builder_of n (ascending_edges n raw)
      in
      let a = Rng.of_int seed and b = Rng.of_int seed in
      for u = 0 to Graph.n g - 1 do
        if Graph.degree g u > 0 then
          for _ = 1 to 8 do
            let want = Graph.random_neighbor g b u in
            let got = Graph.unsafe_random_neighbor g a u in
            if got <> want then
              QCheck.Test.fail_reportf "vertex %d: unsafe %d <> checked %d" u got want
          done
      done;
      List.for_all (fun _ -> Rng.bits64 a = Rng.bits64 b) [ 1; 2; 3; 4 ])

let suite =
  [
    Alcotest.test_case "vertex/edge counts" `Quick test_counts;
    Alcotest.test_case "degrees and neighbors" `Quick test_degrees_and_neighbors;
    Alcotest.test_case "mem_edge" `Quick test_mem_edge;
    Alcotest.test_case "iter_edges visits each edge once" `Quick test_iter_edges_each_once;
    Alcotest.test_case "fold/iter neighbors" `Quick test_fold_and_iter_neighbors;
    Alcotest.test_case "edge_index distinct per arc" `Quick test_edge_index_distinct;
    Alcotest.test_case "edge_index not found" `Quick test_edge_index_not_found;
    Alcotest.test_case "random_neighbor uniform" `Quick test_random_neighbor_uniform;
    Alcotest.test_case "random_neighbor isolated" `Quick test_random_neighbor_isolated;
    Alcotest.test_case "rejects self-loops" `Quick test_rejects_self_loop;
    Alcotest.test_case "rejects duplicates" `Quick test_rejects_duplicate;
    Alcotest.test_case "rejects out-of-range" `Quick test_rejects_out_of_range;
    Alcotest.test_case "regularity queries" `Quick test_regularity;
    Alcotest.test_case "arc_head inverts edge_index" `Quick test_arc_head;
    Alcotest.test_case "validate accepts generators" `Quick test_validate_accepts_generators;
    Alcotest.test_case "edgeless graph" `Quick test_empty_graph;
    Alcotest.test_case "builder matches of_edges" `Quick
      test_builder_matches_of_edges;
    Alcotest.test_case "builder grows past capacity" `Quick
      test_builder_grows_past_capacity;
    Alcotest.test_case "builder rejects bad edges" `Quick
      test_builder_rejects_bad_edges;
    Alcotest.test_case "builder rejects duplicate at finish" `Quick
      test_builder_rejects_duplicate_at_finish;
    Alcotest.test_case "builder rejects hidden duplicates" `Quick
      test_builder_rejects_hidden_duplicates;
    Alcotest.test_case "builder sorts partly sorted slices" `Quick
      test_builder_sorts_partly_sorted_slices;
    Alcotest.test_case "builder is single-use" `Quick test_builder_single_use;
    Alcotest.test_case "builder edgeless graph" `Quick test_builder_edgeless;
    Alcotest.test_case "vertex limit 2^24" `Quick test_vertex_limit;
    Alcotest.test_case "csr_bytes counts 3-byte slots" `Quick test_csr_bytes;
    QCheck_alcotest.to_alcotest prop_random_graph_validates;
    QCheck_alcotest.to_alcotest prop_csr_matches_reference;
    QCheck_alcotest.to_alcotest prop_arc_head_inverts_edge_index;
    QCheck_alcotest.to_alcotest prop_orders_give_same_csr;
    QCheck_alcotest.to_alcotest prop_ascending_repeat_rejected;
    QCheck_alcotest.to_alcotest prop_descent_then_duplicate_rejected;
    QCheck_alcotest.to_alcotest prop_connected_iff_one_component;
    QCheck_alcotest.to_alcotest prop_bipartite_iff_bfs_parity;
    Alcotest.test_case "of_csr accepts a valid CSR" `Quick test_of_csr_accepts_path;
    Alcotest.test_case "of_csr names each defect" `Quick test_of_csr_rejects;
    QCheck_alcotest.to_alcotest prop_builder_round_trips_of_csr;
    Alcotest.test_case "of_upper_rows accepts valid rows" `Quick test_of_upper_rows_accepts;
    Alcotest.test_case "of_upper_rows names each defect" `Quick test_of_upper_rows_rejects;
    QCheck_alcotest.to_alcotest prop_builder_round_trips_of_upper_rows;
    QCheck_alcotest.to_alcotest prop_slot_codec;
    QCheck_alcotest.to_alcotest prop_unsafe_random_neighbor_equals_checked;
  ]
