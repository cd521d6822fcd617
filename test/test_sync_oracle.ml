(* Tests for the synchronous round kernels (Rumor_protocols.Engine) against
   the exact law of their broadcast time on tiny graphs.

   Each kernel's round rules (engine.mli) are written out a second time as
   a brute-force Markov chain over the whole state — informed sets as bit
   masks, agent positions, the meet-exchange source's hand-off flag — built
   from the rules, not from the kernel's data structures.  The broadcast
   time is the chain's absorption time, whose law the chain gives exactly;
   a Kolmogorov-Smirnov gate then compares the kernel's empirical law over
   fixed seeds against it.  A first group checks the chains themselves
   against closed forms, and one test checks that the gate has the power to
   tell two of the laws apart. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Gen_paper = Rumor_graph.Gen_paper
module Placement = Rumor_agents.Placement
module Engine = Rumor_protocols.Engine
module Run_result = Rumor_protocols.Run_result
module Sparse_walkers = Rumor_protocols.Sparse_walkers

(* ------------------------------------------------------- finite laws *)

(* A law is a list of (state, probability) pairs, each state once. *)
let merge pairs =
  let h = Hashtbl.create 16 in
  List.iter
    (fun (s, p) ->
      let q = Option.value (Hashtbl.find_opt h s) ~default:0.0 in
      Hashtbl.replace h s (q +. p))
    pairs;
  Hashtbl.fold (fun s p acc -> (s, p) :: acc) h []

let bind law f =
  merge
    (List.concat_map
       (fun (s, p) -> List.map (fun (s', q) -> (s', p *. q)) (f s))
       law)

let map law f = merge (List.map (fun (s, p) -> (f s, p)) law)

(* The law of the absorption time T of the chain started in [init], one
   round being [step]: [cdf.(t)] = P(T <= t), up to the first t with
   P(T > t) < 1e-12.  Absorbed states are never stepped, and [step] runs
   once per state. *)
let absorption_cdf ~init ~step ~absorbed =
  let memo = Hashtbl.create 1024 in
  let step s =
    match Hashtbl.find_opt memo s with
    | Some l -> l
    | None ->
        let l = step s in
        Hashtbl.add memo s l;
        l
  in
  let live d = List.filter (fun (s, _) -> not (absorbed s)) d in
  let mass d = List.fold_left (fun a (_, p) -> a +. p) 0.0 d in
  let rec go d cdf t =
    let cdf = (1.0 -. mass d) :: cdf in
    if mass d < 1e-12 then Array.of_list (List.rev cdf)
    else if t >= 100_000 then invalid_arg "absorption_cdf: no absorption"
    else go (live (bind d step)) cdf (t + 1)
  in
  go (live (merge init)) [] 0

(* P(T <= t) for any integer t *)
let at cdf t =
  if t < 0 then 0.0 else if t >= Array.length cdf then 1.0 else cdf.(t)

(* ------------------------------------------------------- round rules *)

let bit v = 1 lsl v
let mem mask v = mask land bit v <> 0
let full n = (1 lsl n) - 1

(* a uniform neighbour slot of [u] (a multi-edge counts once per slot) *)
let neighbours g u =
  let d = Graph.degree g u in
  List.init d (fun s -> (Graph.neighbor g u s, 1.0 /. float_of_int d))

(* one walk step from [u]: a stay coin first on a lazy walk *)
let walk g ~lazy_walk u =
  if lazy_walk then (u, 0.5) :: List.map (fun (v, q) -> (v, q /. 2.0)) (neighbours g u)
  else neighbours g u

(* all agents step in parallel: the law of the new position array *)
let moves g ~lazy_walk pos =
  let law = ref [ (pos, 1.0) ] in
  Array.iteri
    (fun a u ->
      law :=
        bind !law (fun pos ->
            List.map
              (fun (v, q) ->
                let pos = Array.copy pos in
                pos.(a) <- v;
                (pos, q))
              (walk g ~lazy_walk u)))
    pos;
  !law

(* [Stationary k]: each agent independently on v w.p. deg v / 2m *)
let stationary g k =
  let two_m = float_of_int (Graph.total_degree g) in
  let one =
    List.init (Graph.n g) (fun v -> (v, float_of_int (Graph.degree g v) /. two_m))
  in
  let law = ref [ ([||], 1.0) ] in
  for _ = 1 to k do
    law := bind !law (fun pos -> List.map (fun (v, q) -> (Array.append pos [| v |], q)) one)
  done;
  !law

let placement g = function
  | Placement.Stationary k -> stationary g k
  | Placement.One_per_vertex -> [ (Array.init (Graph.n g) Fun.id, 1.0) ]
  | _ -> invalid_arg "placement: no chain for this spec"

let agents_at pos v =
  let m = ref 0 in
  Array.iteri (fun a p -> if p = v then m := !m lor bit a) pos;
  !m

(* push: every vertex informed before the round calls a uniform neighbour
   and informs it *)
let push_round g before =
  let law = ref [ (before, 1.0) ] in
  for u = 0 to Graph.n g - 1 do
    if mem before u then
      law :=
        bind !law (fun m -> List.map (fun (v, q) -> (m lor bit v, q)) (neighbours g u))
  done;
  !law

(* push-pull: every vertex calls a uniform neighbour, and the call informs
   whichever endpoint was uninformed if the other was informed before the
   round *)
let push_pull_round g before =
  let law = ref [ (before, 1.0) ] in
  for u = 0 to Graph.n g - 1 do
    law :=
      bind !law (fun m ->
          List.map
            (fun (v, q) ->
              if mem before u then (m lor bit v, q)
              else if mem before v then (m lor bit u, q)
              else (m, q))
            (neighbours g u))
  done;
  !law

(* visit-exchange after the walk: agents informed before the round inform
   their vertex, then every agent on an informed vertex is informed *)
let visit pos agents vertices =
  let vertices = ref vertices and agents' = ref agents in
  Array.iteri (fun a v -> if mem agents a then vertices := !vertices lor bit v) pos;
  Array.iteri (fun a v -> if mem !vertices v then agents' := !agents' lor bit a) pos;
  (pos, !agents', !vertices)

let push_chain g ~source =
  absorption_cdf
    ~init:[ (bit source, 1.0) ]
    ~step:(push_round g)
    ~absorbed:(fun m -> m = full (Graph.n g))

let push_pull_chain g ~source =
  absorption_cdf
    ~init:[ (bit source, 1.0) ]
    ~step:(push_pull_round g)
    ~absorbed:(fun m -> m = full (Graph.n g))

(* state: (positions, informed agents, informed vertices); done when every
   vertex is informed *)
let visit_exchange_chain g ~lazy_walk ~source ~agents =
  absorption_cdf
    ~init:
      (map (placement g agents) (fun pos -> (pos, agents_at pos source, bit source)))
    ~step:(fun (pos, agents, vertices) ->
      map (moves g ~lazy_walk pos) (fun pos -> visit pos agents vertices))
    ~absorbed:(fun (_, _, vertices) -> vertices = full (Graph.n g))

(* state: (positions, informed agents, source still active).  Round 0
   informs the agents on the source, else the source waits for its first
   visitors and informs all of them.  After each walk, an agent sharing a
   vertex with one informed before the round is informed.  Done when every
   agent is informed. *)
let meet_exchange_chain g ~lazy_walk ~source ~agents =
  let k = Placement.count agents g in
  absorption_cdf
    ~init:
      (map (placement g agents) (fun pos ->
           let here = agents_at pos source in
           (pos, here, here = 0)))
    ~step:(fun (pos, informed, active) ->
      map (moves g ~lazy_walk pos) (fun pos ->
          let here = agents_at pos source in
          let handoff = if active then here else 0 in
          let witnessed = ref 0 in
          Array.iteri
            (fun a v -> if mem informed a then witnessed := !witnessed lor bit v)
            pos;
          let met = ref 0 in
          Array.iteri (fun a v -> if mem !witnessed v then met := !met lor bit a) pos;
          (pos, informed lor handoff lor !met, active && handoff = 0)))
    ~absorbed:(fun (_, informed, _) -> informed = full k)

(* one push-pull round, then one visit-exchange round on the shared
   informed vertex set *)
let combined_chain g ~lazy_walk ~source ~agents =
  absorption_cdf
    ~init:
      (map (placement g agents) (fun pos -> (pos, agents_at pos source, bit source)))
    ~step:(fun (pos, agents, vertices) ->
      bind (push_pull_round g vertices) (fun vertices ->
          map (moves g ~lazy_walk pos) (fun pos -> visit pos agents vertices)))
    ~absorbed:(fun (_, _, vertices) -> vertices = full (Graph.n g))

(* -------------------------------------------- the chains, by hand *)

let choose n j =
  let r = ref 1.0 in
  for i = 1 to j do
    r := !r *. float_of_int (n - j + i) /. float_of_int i
  done;
  !r

let check_cdf label ~upto exact cdf =
  for t = 0 to upto do
    Alcotest.(check (float 1e-9)) (Printf.sprintf "%s: F(%d)" label t) (exact t) (at cdf t)
  done

(* from the star's centre only the centre informs anyone (a leaf can only
   call the centre), one uniform leaf per round: the coupon collector *)
let test_push_star_centre () =
  let leaves = 4 in
  let cdf = push_chain (Gen.star ~leaves) ~source:0 in
  check_cdf "star4" ~upto:40
    (fun t ->
      let acc = ref 0.0 in
      for j = 0 to leaves do
        let sign = if j mod 2 = 0 then 1.0 else -1.0 in
        acc :=
          !acc
          +. sign *. choose leaves j
             *. ((1.0 -. (float_of_int j /. float_of_int leaves)) ** float_of_int t)
      done;
      !acc)
    cdf

(* from a path's end the first round crosses the end edge and then the
   frontier advances w.p. 1/2 per round: 1 + NegBin(n - 2, 1/2) *)
let test_push_path_end () =
  let n = 6 in
  let cdf = push_chain (Gen.path n) ~source:0 in
  check_cdf "P_6" ~upto:40
    (fun t ->
      if t < 1 then 0.0
      else begin
        let acc = ref 0.0 in
        for j = n - 2 to t - 1 do
          acc := !acc +. choose (t - 1) j
        done;
        !acc /. (2.0 ** float_of_int (t - 1))
      end)
    cdf

(* on K_3 the first round informs one vertex and each later round fails
   only if both informed vertices call each other: 1 + Geometric(3/4) *)
let test_push_triangle () =
  let cdf = push_chain (Gen.complete 3) ~source:0 in
  check_cdf "K_3" ~upto:30
    (fun t -> if t < 1 then 0.0 else 1.0 -. (0.25 ** float_of_int (t - 1)))
    cdf

(* every leaf calls the centre: one round from the centre; from a leaf
   the first round informs the centre and the second every other leaf *)
let test_push_pull_star () =
  let g = Gen.star ~leaves:4 in
  check_cdf "from centre" ~upto:3
    (fun t -> if t >= 1 then 1.0 else 0.0)
    (push_pull_chain g ~source:0);
  check_cdf "from leaf" ~upto:3
    (fun t -> if t >= 2 then 1.0 else 0.0)
    (push_pull_chain g ~source:1)

(* one agent is informed when it first stands on the source: at once
   w.p. 1/n, else after a Geometric(1/(n-1)) walk on K_n *)
let test_meet_exchange_one_agent () =
  let n = 5 in
  let cdf =
    meet_exchange_chain (Gen.complete n) ~lazy_walk:false ~source:0
      ~agents:(Placement.Stationary 1)
  in
  let p = 1.0 /. float_of_int (n - 1) in
  check_cdf "K_5" ~upto:60
    (fun t ->
      (1.0 /. float_of_int n)
      +. (float_of_int (n - 1) /. float_of_int n *. (1.0 -. ((1.0 -. p) ** float_of_int t))))
    cdf

(* one agent on K_2: standing on the source it informs the other vertex in
   round 1; standing on the other, it fetches the rumour in round 1 and
   delivers it in round 2 *)
let test_visit_exchange_one_agent () =
  let cdf =
    visit_exchange_chain (Gen.complete 2) ~lazy_walk:false ~source:0
      ~agents:(Placement.Stationary 1)
  in
  check_cdf "K_2" ~upto:4
    (fun t -> if t >= 2 then 1.0 else if t = 1 then 0.5 else 0.0)
    cdf

(* the push-pull half alone informs every leaf in round 1 *)
let test_combined_star () =
  check_cdf "star3" ~upto:3
    (fun t -> if t >= 1 then 1.0 else 0.0)
    (combined_chain (Gen.star ~leaves:3) ~lazy_walk:false ~source:0
       ~agents:(Placement.Stationary 2))

(* ------------------------------------------- the kernels, by KS *)

(* Every cell below draws [runs] fixed seeds of its own and gates the KS
   distance between the kernel's broadcast times and the chain's law.
   Family-wise false-alarm rate 10^-3 over the [cells] gated cells:
   Bonferroni, each at 10^-3 / cells.  Being integer-valued, the law has
   atoms, so each gate is conservative. *)
let runs = 1000
let cells = 58
let alpha = 1e-3 /. float_of_int cells

let times ~salt run =
  Array.init runs (fun rep ->
      let r : Run_result.t = run (Rng.of_int (salt + rep)) in
      match r.broadcast_time with
      | Some t -> float_of_int t
      | None -> Alcotest.fail "run did not complete")

let ks_distance xs cdf =
  Ks.one_sample xs
    ~cdf_left:(fun x -> at cdf (int_of_float x - 1))
    (fun x -> at cdf (int_of_float x))

let check_law label xs cdf =
  let d = ks_distance xs cdf in
  let crit = Ks.threshold ~alpha ~m:(float_of_int runs) in
  Alcotest.(check bool) (Printf.sprintf "%s: KS D = %.4f <= %.4f" label d crit) true (d <= crit)

let max_rounds = 100_000

(* the graphs for push and push-pull, with their sources *)
let vertex_cells () =
  let ds = Gen_paper.double_star ~leaves_per_star:2 in
  [
    ("K_5", Gen.complete 5, 0);
    ("C_6", Gen.cycle 6, 0);
    ("P_5 from the middle", Gen.path 5, 2);
    ("star4 from a leaf", Gen.star ~leaves:4, 1);
    ("binary tree 7", Gen.complete_binary_tree ~levels:3, 0);
    ("hypercube 3", Gen.hypercube ~dim:3, 0);
    ("lollipop 3+2", Gen.lollipop ~clique_size:3 ~tail_len:2, 0);
    ("double star 2", ds.Gen_paper.ds_graph, ds.Gen_paper.ds_center_a);
  ]

let push_case i (name, g, source) =
  Alcotest.test_case ("push law: " ^ name) `Quick (fun () ->
      check_law name
        (times ~salt:(1_000_000 + (10_000 * i)) (fun rng ->
             Engine.push rng g ~source ~max_rounds ()))
        (push_chain g ~source))

let push_pull_case i (name, g, source) =
  Alcotest.test_case ("push-pull law: " ^ name) `Quick (fun () ->
      check_law name
        (times ~salt:(2_000_000 + (10_000 * i)) (fun rng ->
             Engine.push_pull rng g ~source ~max_rounds ()))
        (push_pull_chain g ~source))

(* the walker cells: (name, graph, lazy walk, agents), source 0; one
   agent per vertex has no placement draw and every agent in play at once *)
let visit_cells () =
  [
    ("K_4", Gen.complete 4, false, Placement.Stationary 1);
    ("K_4", Gen.complete 4, false, Placement.Stationary 2);
    ("C_5", Gen.cycle 5, false, Placement.Stationary 1);
    ("C_5", Gen.cycle 5, false, Placement.Stationary 2);
    ("lazy P_4", Gen.path 4, true, Placement.Stationary 1);
    ("lazy P_4", Gen.path 4, true, Placement.Stationary 2);
    ("star3", Gen.star ~leaves:3, false, Placement.Stationary 1);
    ("star3", Gen.star ~leaves:3, false, Placement.Stationary 2);
    ("C_4", Gen.cycle 4, false, Placement.One_per_vertex);
  ]

let meet_cells () =
  [
    ("K_4", Gen.complete 4, false, Placement.Stationary 2);
    ("K_4", Gen.complete 4, false, Placement.Stationary 3);
    ("C_5", Gen.cycle 5, false, Placement.Stationary 2);
    ("C_5", Gen.cycle 5, false, Placement.Stationary 3);
    ("lazy P_3", Gen.path 3, true, Placement.Stationary 2);
    ("lazy P_3", Gen.path 3, true, Placement.Stationary 3);
    ("lazy star3", Gen.star ~leaves:3, true, Placement.Stationary 2);
    ("lazy star3", Gen.star ~leaves:3, true, Placement.Stationary 3);
    ("lazy P_4", Gen.path 4, true, Placement.One_per_vertex);
  ]

let agents_label g = function
  | Placement.Stationary k -> Printf.sprintf "k=%d" k
  | spec -> Printf.sprintf "one per vertex (k=%d)" (Placement.count spec g)

let walker_label name g agents walkers =
  Printf.sprintf "%s %s %s" name (agents_label g agents)
    (Sparse_walkers.mode_to_string walkers)

let visit_case ~salt (name, g, lazy_walk, agents) walkers =
  let label = walker_label name g agents walkers in
  Alcotest.test_case ("visit-exchange law: " ^ label) `Quick (fun () ->
      check_law label
        (times ~salt (fun rng ->
             Engine.visit_exchange ~lazy_walk ~walkers rng g ~source:0 ~agents
               ~max_rounds ()))
        (visit_exchange_chain g ~lazy_walk ~source:0 ~agents))

let meet_case ~salt (name, g, lazy_walk, agents) walkers =
  let label = walker_label name g agents walkers in
  Alcotest.test_case ("meet-exchange law: " ^ label) `Quick (fun () ->
      check_law label
        (times ~salt (fun rng ->
             Engine.meet_exchange ~lazy_walk ~walkers rng g ~source:0 ~agents
               ~max_rounds ()))
        (meet_exchange_chain g ~lazy_walk ~source:0 ~agents))

(* both walker representations over every cell, each on its own seeds *)
let walker_cases ~base case cells =
  List.concat
    (List.mapi
       (fun i cell ->
         List.mapi
           (fun j walkers -> case ~salt:(base + (10_000 * ((2 * i) + j))) cell walkers)
           [ Sparse_walkers.Dense; Sparse_walkers.Sparse ])
       cells)

(* combined has dense walkers only *)
let combined_cells () =
  [
    ("P_4", Gen.path 4, 0, Placement.Stationary 1);
    ("P_4", Gen.path 4, 0, Placement.Stationary 2);
    ("C_5", Gen.cycle 5, 0, Placement.Stationary 1);
    ("C_5", Gen.cycle 5, 0, Placement.Stationary 2);
    ("star3 from a leaf", Gen.star ~leaves:3, 1, Placement.Stationary 1);
    ("star3 from a leaf", Gen.star ~leaves:3, 1, Placement.Stationary 2);
  ]

let combined_case i (name, g, source, agents) =
  let label = Printf.sprintf "%s %s" name (agents_label g agents) in
  Alcotest.test_case ("combined law: " ^ label) `Quick (fun () ->
      check_law label
        (times ~salt:(5_000_000 + (10_000 * i)) (fun rng ->
             Engine.combined rng g ~source ~agents ~max_rounds ()))
        (combined_chain g ~lazy_walk:false ~source ~agents))

(* the gate has power: on K_5 push-pull's law is far from push's (about
   2 vs 3-4 rounds), and 1000 push runs must fail a gate against it *)
let test_gate_rejects_wrong_law () =
  let g = Gen.complete 5 in
  let xs =
    times ~salt:7_000_000 (fun rng -> Engine.push rng g ~source:0 ~max_rounds ())
  in
  let d = ks_distance xs (push_pull_chain g ~source:0) in
  let crit = Ks.threshold ~alpha ~m:(float_of_int runs) in
  Alcotest.(check bool) (Printf.sprintf "KS D = %.4f > %.4f" d crit) true (d > crit)

let suite =
  [
    Alcotest.test_case "chain: push from the star's centre is coupon collector"
      `Quick test_push_star_centre;
    Alcotest.test_case "chain: push from a path's end is 1 + NegBin" `Quick
      test_push_path_end;
    Alcotest.test_case "chain: push on K_3 is 1 + Geometric(3/4)" `Quick
      test_push_triangle;
    Alcotest.test_case "chain: push-pull on the star takes 1 or 2 rounds" `Quick
      test_push_pull_star;
    Alcotest.test_case "chain: meet-exchange with one agent is a hitting time"
      `Quick test_meet_exchange_one_agent;
    Alcotest.test_case "chain: visit-exchange with one agent on K_2" `Quick
      test_visit_exchange_one_agent;
    Alcotest.test_case "chain: combined from the star's centre takes 1 round"
      `Quick test_combined_star;
  ]
  @ List.mapi push_case (vertex_cells ())
  @ List.mapi push_pull_case (vertex_cells ())
  @ walker_cases ~base:3_000_000 visit_case (visit_cells ())
  @ walker_cases ~base:4_000_000 meet_case (meet_cells ())
  @ List.mapi combined_case (combined_cells ())
  @ [
      Alcotest.test_case "KS gate rejects push against push-pull's law" `Quick
        test_gate_rejects_wrong_law;
    ]
