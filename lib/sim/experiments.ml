module Rng = Rumor_prob.Rng
module Stats = Rumor_prob.Stats
module Regress = Rumor_prob.Regress
module Graph = Rumor_graph.Graph
module Gen_basic = Rumor_graph.Gen_basic
module Gen_paper = Rumor_graph.Gen_paper
module Gen_random = Rumor_graph.Gen_random
module Placement = Rumor_agents.Placement
module P = Rumor_protocols

type profile = Quick | Full

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let pick profile ~quick ~full = match profile with Quick -> quick | Full -> full

let reps profile = pick profile ~quick:5 ~full:15

let cell_seed = Sweep.cell_seed

type t = {
  id : string;
  title : string;
  paper_ref : string;
  run : Sweep.config -> profile -> seed:int -> Table.t list;
}

let time_cell = Sweep.time_cell

(* A sweep row that starts with its label, then every column's time. *)
let times label ms = label :: Array.to_list (Array.map time_cell ms)

(* The ratio of two cells' means, and that as a table cell. *)
let mean_ratio a b = Replicate.mean a /. Float.max (Replicate.mean b) 1e-9
let ratio a b = Printf.sprintf "%.2f" (mean_ratio a b)

let alpha = 1.0
let vx = Protocol.visit_exchange ~alpha ()
let mx = Protocol.meet_exchange ~alpha ()
let comb = Protocol.combined ~alpha ()

let ilog2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

(* The random d-regular graphs of the regular-graph theorems, d = Theta(log n). *)
let regular_d n = max 6 (ilog2 n)
let regular_label n = Printf.sprintf "%d (%d)" n (regular_d n)

let regular_graph n =
  Sweep.Sampled
    (fun rng -> (Gen_random.random_regular_connected rng ~n ~d:(regular_d n), 0))

(* p = 2 ln n / n is comfortably above the ln n / n threshold; resample
   the rare disconnected draw like random_regular_connected does *)
let connected_er rng ~n =
  let p = 2.0 *. log (float_of_int n) /. float_of_int n in
  let rec go () =
    let g = Gen_random.erdos_renyi rng ~n ~p in
    if Rumor_graph.Algo.is_connected g then g else go ()
  in
  go ()

(* The one table of a sweep at the profile's replication count. *)
let sweep cfg profile ~seed ~id ~title ~claim ~header ~label ~graph ~columns ~max_rounds
    ~render ~notes rows =
  [
    Sweep.run cfg
      {
        Sweep.id;
        title;
        claim;
        header;
        seed;
        reps = reps profile;
        rows;
        label;
        graph;
        columns;
        max_rounds;
        render;
        notes;
      };
  ]

(* Figure 1's families as fixed-graph builders, each with its source. *)
let double_star l () =
  let ds = Gen_paper.double_star ~leaves_per_star:l in
  (ds.Gen_paper.ds_graph, ds.Gen_paper.ds_leaf_a)

let heavy_tree levels () =
  let ht = Gen_paper.heavy_binary_tree ~levels in
  (ht.Gen_paper.ht_graph, ht.Gen_paper.ht_first_leaf)

(* Figure 1's sweeps: one fixed graph per size n, one column per protocol,
   and each column's fitted growth exponent under the table. *)
let size_sweep cfg profile ~seed ~id ~title ~claim ~shape ~notes ~cap ~specs rows =
  let fit_notes measured =
    let ns = Array.of_list (List.map (fun ((n, _), _) -> float_of_int n) measured) in
    if Array.length ns < 2 then []
    else
      List.mapi
        (fun j spec ->
          let ts =
            Array.of_list
              (List.map (fun (_, ms) -> Float.max (Replicate.mean ms.(j)) 0.5) measured)
          in
          let pf = Regress.power_fit ns ts in
          Printf.sprintf "%s: fitted growth exponent %.2f (T ~ n^e; ~0 means polylog)"
            (Protocol.name spec) pf.Regress.slope)
        specs
  in
  sweep cfg profile ~seed ~id ~title ~claim
    ~header:("n" :: List.map Protocol.name specs)
    ~label:(fun (n, _) -> string_of_int n)
    ~graph:(fun (_, build) -> Sweep.Fixed build)
    ~columns:(List.map Fun.const specs)
    ~max_rounds:(fun (n, _) -> cap * n)
    ~render:(fun (n, _) -> times (string_of_int n))
    ~notes:(fun measured -> notes @ fit_notes measured @ [ shape ])
    rows

(* ------------------------------------------------------------------ *)
(* E1: star graph (Fig 1a, Lemma 2)                                    *)
(* ------------------------------------------------------------------ *)

let e1_run cfg profile ~seed =
  let leaves = pick profile ~quick:[ 128; 256; 512; 1024 ] ~full:[ 128; 256; 512; 1024; 2048; 4096 ] in
  size_sweep cfg profile ~seed ~id:"E1" ~title:"E1: star S_n, source = center"
    ~claim:
      "Lemma 2: E[T_push] = Omega(n log n); T_ppull <= 2; T_visitx, T_meetx = \
       O(log n) w.h.p."
    ~shape:
      "expected shape: push exponent ~1 (n log n); others ~0 with small \
       absolute values"
    ~notes:[] ~cap:60
    ~specs:[ Protocol.push; Protocol.push_pull; vx; mx ]
    (List.map (fun l -> (l + 1, fun () -> (Gen_basic.star ~leaves:l, 0))) leaves)

(* ------------------------------------------------------------------ *)
(* E2: double star (Fig 1b, Lemma 3)                                   *)
(* ------------------------------------------------------------------ *)

let e2_run cfg profile ~seed =
  let leaves = pick profile ~quick:[ 128; 256; 512; 1024 ] ~full:[ 128; 256; 512; 1024; 2048; 4096 ] in
  size_sweep cfg profile ~seed ~id:"E2" ~title:"E2: double star S2_n, source = a leaf"
    ~claim:"Lemma 3: E[T_ppull] = Omega(n); T_visitx, T_meetx = O(log n) w.h.p."
    ~shape:"expected shape: push-pull exponent ~1; visit/meet-exchange ~0"
    ~notes:
      [
        "the centers' edge is picked by push-pull with prob O(1/n) per \
         round; agents cross it with constant probability per round";
      ]
    ~cap:60
    ~specs:[ Protocol.push_pull; vx; mx ]
    (List.map (fun l -> (2 * (l + 1), double_star l)) leaves)

(* ------------------------------------------------------------------ *)
(* E3: heavy binary tree (Fig 1c, Lemma 4)                             *)
(* ------------------------------------------------------------------ *)

let e3_run cfg profile ~seed =
  let levels = pick profile ~quick:[ 8; 9; 10; 11 ] ~full:[ 8; 9; 10; 11; 12; 13 ] in
  size_sweep cfg profile ~seed ~id:"E3" ~title:"E3: heavy binary tree B_n, source = a leaf"
    ~claim:
      "Lemma 4: T_push = O(log n) w.h.p.; E[T_visitx] = Omega(n); T_meetx = \
       O(log n) w.h.p. for a leaf source"
    ~shape:"expected shape: visit-exchange exponent ~1; push and meet-exchange ~0"
    ~notes:
      [
        "almost all stationary mass is on the leaf clique, so no agent \
         finds the root for Omega(n) rounds";
      ]
    ~cap:100
    ~specs:[ Protocol.push; vx; mx ]
    (List.map (fun lv -> ((1 lsl lv) - 1, heavy_tree lv)) levels)

(* ------------------------------------------------------------------ *)
(* E4: Siamese heavy binary trees (Fig 1d, Lemma 8)                    *)
(* ------------------------------------------------------------------ *)

let e4_run cfg profile ~seed =
  let levels = pick profile ~quick:[ 8; 9; 10; 11 ] ~full:[ 8; 9; 10; 11; 12 ] in
  size_sweep cfg profile ~seed ~id:"E4"
    ~title:"E4: Siamese heavy binary trees D_n, source = a left leaf"
    ~claim:
      "Lemma 8: T_push = O(log n) w.h.p.; E[T_visitx] = Omega(n); \
       E[T_meetx] = Omega(n)"
    ~shape:"expected shape: push exponent ~0; both agent protocols ~1"
    ~notes:
      [
        "information must cross the shared root; agents reach it only \
         after Omega(n) rounds in expectation";
      ]
    ~cap:100
    ~specs:[ Protocol.push; vx; mx ]
    (List.map
       (fun lv ->
         ( (2 * ((1 lsl lv) - 1)) - 1,
           fun () ->
             let si = Gen_paper.siamese_heavy_tree ~levels:lv in
             (si.Gen_paper.si_graph, si.Gen_paper.si_leaf_left) ))
       levels)

(* ------------------------------------------------------------------ *)
(* E5: cycle of stars of cliques (Fig 1e, Lemma 9)                     *)
(* ------------------------------------------------------------------ *)

let e5_run cfg profile ~seed =
  let ks = pick profile ~quick:[ 6; 8; 10; 12 ] ~full:[ 6; 8; 10; 12; 14; 16 ] in
  let trend measured =
    let k0, first = List.hd measured and k1, last = List.hd (List.rev measured) in
    Printf.sprintf
      "meetx/visitx ratio moves from %.2f (k=%d) to %.2f (k=%d); Lemma 9 \
       predicts growth ~ log n"
      (mean_ratio first.(1) first.(0)) k0 (mean_ratio last.(1) last.(0)) k1
  in
  sweep cfg profile ~seed ~id:"E5"
    ~title:"E5: cycle-of-stars-of-cliques (k^3+k^2+k vertices), source in a clique"
    ~claim:
      "Lemma 9: E[T_visitx] = O(n^{2/3}) while E[T_meetx] = Omega(n^{2/3} \
       log n): a logarithmic-factor separation on an (almost) regular graph"
    ~header:[ "k"; "n"; "visit-exchange"; "meet-exchange"; "ratio" ]
    ~label:string_of_int
    ~graph:(fun k ->
      Sweep.Fixed
        (fun () ->
          let csc = Gen_paper.cycle_stars_cliques ~k in
          (csc.Gen_paper.csc_graph, csc.Gen_paper.csc_a_clique_vertex)))
    ~columns:(List.map Fun.const [ vx; mx ])
    ~max_rounds:(fun k -> 500 * k * k)
    ~render:(fun k ms ->
      string_of_int k
      :: times (string_of_int (k + (k * k) + (k * k * k))) ms
      @ [ ratio ms.(1) ms.(0) ])
    ~notes:(fun measured ->
      [
        trend measured;
        "ring vertices c_i are never informed in meet-exchange, slowing \
         each ring hop by a log factor";
      ])
    ks

(* ------------------------------------------------------------------ *)
(* E6: push vs visit-exchange on regular graphs (Theorem 1)            *)
(* ------------------------------------------------------------------ *)

(* Rows are (label, graph) pairs, one table per regular family. *)
let e6_table cfg profile ~seed ~id ~title rows =
  sweep cfg profile ~seed ~id ~title
    ~claim:
      "Theorem 1: on d-regular graphs with d = Omega(log n), T_push and \
       T_visitx are asymptotically equal up to constants"
    ~header:[ "n (d)"; "push"; "visit-exchange"; "push/visitx" ]
    ~label:fst ~graph:snd
    ~columns:(List.map Fun.const [ Protocol.push; vx ])
    ~max_rounds:(Fun.const 100_000)
    ~render:(fun (label, _) ms -> times label ms @ [ ratio ms.(0) ms.(1) ])
    ~notes:(fun _ ->
      [
        "Theorem 1 predicts the ratio stays within constant bounds as n \
         grows (no drift to 0 or infinity)";
      ])
    rows

let e6_run cfg profile ~seed =
  let ns = pick profile ~quick:[ 256; 512; 1024; 2048 ] ~full:[ 256; 512; 1024; 2048; 4096; 8192 ] in
  let rr_rows = List.map (fun n -> (regular_label n, regular_graph n)) ns in
  let hc_dims = pick profile ~quick:[ 8; 9; 10; 11 ] ~full:[ 8; 9; 10; 11; 12; 13 ] in
  let hc_rows =
    List.map
      (fun dim ->
        ( Printf.sprintf "%d (%d)" (1 lsl dim) dim,
          Sweep.Fixed (fun () -> (Gen_basic.hypercube ~dim, 0)) ))
      hc_dims
  in
  let neck_sizes = pick profile ~quick:[ (8, 16); (16, 16); (32, 16) ] ~full:[ (8, 16); (16, 16); (32, 16); (64, 16) ] in
  let neck_rows =
    List.map
      (fun (cliques, s) ->
        ( Printf.sprintf "%d (%d)" (cliques * s) (s - 1),
          Sweep.Fixed (fun () -> (Gen_basic.necklace ~cliques ~clique_size:s, 0)) ))
      neck_sizes
  in
  e6_table cfg profile ~seed ~id:"E6a" ~title:"E6a: random d-regular, d = max(6, log2 n)" rr_rows
  @ e6_table cfg profile ~seed:(seed + 1) ~id:"E6b" ~title:"E6b: hypercube (d = log2 n exactly)" hc_rows
  @ e6_table cfg profile ~seed:(seed + 2) ~id:"E6c"
      ~title:"E6c: necklace of 16-cliques (15-regular, diameter Theta(n)): both protocols polynomial, ratio still constant"
      neck_rows

(* ------------------------------------------------------------------ *)
(* E7: visit-exchange vs meet-exchange on regular graphs (Theorem 23)  *)
(* ------------------------------------------------------------------ *)

let e7_run cfg profile ~seed =
  let ns = pick profile ~quick:[ 256; 512; 1024; 2048 ] ~full:[ 256; 512; 1024; 2048; 4096 ] in
  sweep cfg profile ~seed ~id:"E7"
    ~title:"E7: meet-exchange vs visit-exchange on random d-regular"
    ~claim:
      "Theorem 23: P[T_visitx <= k + c log n] >= P[T_meetx <= k] - n^-lambda \
       — meet-exchange is never more than an additive O(log n) faster"
    ~header:[ "n (d)"; "visit-exchange"; "meet-exchange"; "gap"; "gap/ln n" ]
    ~label:regular_label ~graph:regular_graph
    ~columns:(List.map Fun.const [ vx; mx ])
    ~max_rounds:(Fun.const 100_000)
    ~render:(fun n ms ->
      let gap = Replicate.mean ms.(1) -. Replicate.mean ms.(0) in
      times (regular_label n) ms
      @ [ Printf.sprintf "%.1f" gap; Printf.sprintf "%.2f" (gap /. log (float_of_int n)) ])
    ~notes:(fun _ ->
      [
        "Theorem 23 bounds T_visitx <= T_meetx + c log n: the (meetx - \
         visitx) gap should stay O(log n), i.e. the last column bounded";
      ])
    ns

(* ------------------------------------------------------------------ *)
(* E8: logarithmic lower bounds (Theorems 24, 25)                      *)
(* ------------------------------------------------------------------ *)

let e8_run cfg profile ~seed =
  let ns = pick profile ~quick:[ 256; 512; 1024; 2048 ] ~full:[ 256; 512; 1024; 2048; 4096; 8192 ] in
  let fit_for measured j label =
    let ns_f = Array.of_list (List.map (fun (n, _) -> float_of_int n) measured) in
    let ts = Array.of_list (List.map (fun (_, ms) -> Replicate.mean ms.(j)) measured) in
    let lf = Regress.log_fit ns_f ts in
    Printf.sprintf "%s: T ~ %.2f * ln n + %.2f (log-linear fit, r2=%.2f)" label
      lf.Regress.slope lf.Regress.intercept lf.Regress.r2
  in
  sweep cfg profile ~seed ~id:"E8"
    ~title:"E8: Omega(log n) lower bounds on random d-regular"
    ~claim:
      "Theorems 24, 25: T_visitx and T_meetx are Omega(log n) w.h.p. on \
       d-regular graphs with d = Omega(log n), |A| = O(n)"
    ~header:[ "n (d)"; "ln n"; "visitx"; "min/ln n"; "meetx"; "min/ln n" ]
    ~label:regular_label ~graph:regular_graph
    ~columns:(List.map Fun.const [ vx; mx ])
    ~max_rounds:(Fun.const 100_000)
    ~render:(fun n ms ->
      let ln = log (float_of_int n) in
      let min_over_ln (m : Replicate.measurement) =
        Printf.sprintf "%.2f" (m.summary.Stats.min /. ln)
      in
      [
        regular_label n;
        Printf.sprintf "%.1f" ln;
        time_cell ms.(0);
        min_over_ln ms.(0);
        time_cell ms.(1);
        min_over_ln ms.(1);
      ])
    ~notes:(fun measured ->
      [
        fit_for measured 0 "visit-exchange";
        fit_for measured 1 "meet-exchange";
        "Theorems 24/25: even the minimum over replications stays >= c ln n \
         with c > 0";
      ])
    ns

(* ------------------------------------------------------------------ *)
(* E9: the Section 5 coupling invariants (Lemmas 13, 14, Eq. 3)        *)
(* ------------------------------------------------------------------ *)

(* The Theorem 19 direction plus the tweaked processes: per vertex,
   visit-exchange's informing round t_u should be within a constant factor
   of tau_u + log n (Lemma 22), and the t-/r-clamps should never fire on
   d-regular graphs with d = Omega(log n) (Lemmas 12 and 21). *)
let e9b_table profile ~seed =
  let ns = pick profile ~quick:[ 256; 512 ] ~full:[ 256; 512; 1024; 2048 ] in
  let trials = pick profile ~quick:3 ~full:10 in
  let rows =
    List.mapi
      (fun i n ->
        (* Lemma 21 needs alpha * d >> log n before the Eq.(10) clamp is
           w.h.p. idle; d ~ 64 puts even n = 256 in that regime *)
        let d = max 64 (6 * ilog2 n) in
        let master = Rng.of_int (cell_seed seed i 0) in
        let worst_ratio = ref 0.0 in
        let t_interventions = ref 0 in
        let r_interventions = ref 0 in
        for _ = 1 to trials do
          let rng = Rng.split master in
          let g = Gen_random.random_regular_connected rng ~n ~d in
          let tau = Array.make n 0 in
          let (_ : P.Run_result.t) =
            P.Engine.push ~tau rng g ~source:0 ~max_rounds:(100 * n) ()
          in
          let vertex_time = Array.make n 0 in
          let (_ : P.Run_result.t) =
            P.Engine.visit_exchange ~tau:vertex_time rng g ~source:0
              ~agents:(Placement.Linear alpha) ~max_rounds:(100 * n) ()
          in
          let ln_n = log (float_of_int n) in
          Array.iteri
            (fun u tu ->
              if tu < max_int && tau.(u) < max_int then begin
                let ratio = float_of_int tu /. (float_of_int tau.(u) +. ln_n) in
                if ratio > !worst_ratio then worst_ratio := ratio
              end)
            vertex_time;
          let t_run =
            P.Tweaked_visit_exchange.run_t_visit_exchange rng g ~source:0
              ~agents:(Placement.Linear alpha) ~gamma:6.0 ~max_rounds:(100 * n) ()
          in
          t_interventions :=
            !t_interventions + t_run.P.Tweaked_visit_exchange.interventions;
          let r_run =
            P.Tweaked_visit_exchange.run_r_visit_exchange rng g ~source:0
              ~agents:(Placement.Linear alpha) ~max_rounds:(100 * n) ()
          in
          r_interventions :=
            !r_interventions + r_run.P.Tweaked_visit_exchange.interventions
        done;
        [
          Printf.sprintf "%d (%d)" n d;
          string_of_int trials;
          Printf.sprintf "%.2f" !worst_ratio;
          string_of_int !t_interventions;
          string_of_int !r_interventions;
        ])
      ns
  in
  Table.make
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~notes:
      [
        "max t/(tau+ln n): worst per-vertex ratio of visit-exchange's \
         informing round to push's plus log n; Theorem 19 bounds it by a \
         constant c";
        "t-/r-clamp: total agents removed by Eq.(3) (gamma = 6) / added by \
         Eq.(10) across all runs; Lemmas 12 and 21 say both are 0 w.h.p. \
         for d = Omega(log n)";
      ]
    ~title:"E9b: Theorem 19 direction and the tweaked processes"
    ~claim:
      "Lemma 22: t_u <= c (tau_u + log n) w.h.p.; Lemmas 12/21: the Eq.(3) \
       and Eq.(10) clamps never fire on d-regular graphs with d = \
       Omega(log n)"
    ~header:[ "n (d)"; "runs"; "max t/(tau+ln n)"; "t-clamp"; "r-clamp" ]
    rows

let e9_run _cfg profile ~seed =
  let ns = pick profile ~quick:[ 128; 256; 512 ] ~full:[ 128; 256; 512; 1024; 2048 ] in
  let trials = pick profile ~quick:3 ~full:10 in
  let rows =
    List.mapi
      (fun i n ->
        let d = regular_d n in
        let master = Rng.of_int (cell_seed seed i 0) in
        let violations = ref 0 in
        let congestion_mismatches = ref 0 in
        let max_ratio = ref 0.0 in
        let max_load = ref 0 in
        for _ = 1 to trials do
          let rng = Rng.split master in
          let g = Gen_random.random_regular_connected rng ~n ~d in
          let c = P.Coupling.create rng g ~source:0 in
          let o =
            P.Coupling.run_visit_exchange ~record_history:true c
              ~agents:(Placement.Linear alpha) ~max_rounds:(100 * n)
          in
          let tau = P.Coupling.run_push c ~max_rounds:(100 * n) in
          violations := !violations + List.length (P.Coupling.lemma13_violations ~tau o);
          for u = 0 to n - 1 do
            if o.P.Coupling.vertex_time.(u) < max_int then begin
              let walk = P.Coupling.canonical_walk o u in
              let q = P.Coupling.congestion o walk in
              if q <> o.P.Coupling.c_counter.(u) then incr congestion_mismatches;
              if o.P.Coupling.vertex_time.(u) > 0 then begin
                let r =
                  float_of_int o.P.Coupling.c_counter.(u)
                  /. float_of_int o.P.Coupling.vertex_time.(u)
                in
                if r > !max_ratio then max_ratio := r
              end
            end
          done;
          let load = P.Coupling.max_neighborhood_load o g in
          if load > !max_load then max_load := load
        done;
        [
          Printf.sprintf "%d (%d)" n d;
          string_of_int trials;
          string_of_int !violations;
          string_of_int !congestion_mismatches;
          Printf.sprintf "%.2f" !max_ratio;
          Printf.sprintf "%d (%.1fd)" !max_load (float_of_int !max_load /. float_of_int d);
        ])
      ns
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "violations = vertices with tau_u > C_u(t_u) under the shared-list \
           coupling (Lemma 13: must be 0)";
          "Q mismatches = canonical walks whose congestion differs from \
           C_u(t_u) (Lemma 14: must be 0)";
          "max C/t = worst congestion-per-round over vertices; Section 5.7 \
           bounds it by a constant beta w.h.p.";
          "max load = max_u sum_{v in N(u)} |Z_v(t)|; Lemma 12/Eq.(3) says \
           it stays O(d)";
        ]
      ~title:"E9a: coupling invariants of Section 5 on random d-regular"
      ~claim:
        "Lemma 13: tau_u <= C_u(t_u) for all u; Lemma 14: the canonical walk \
         to u has congestion exactly C_u(t_u); Eq.(3): neighborhood loads \
         stay O(d)"
      ~header:[ "n (d)"; "runs"; "Lemma13 viol."; "Q mismatches"; "max C/t"; "max nbhd load" ]
      rows;
    e9b_table profile ~seed:(seed + 17);
  ]

(* ------------------------------------------------------------------ *)
(* E10: the push-pull + visit-exchange combination (Section 1)         *)
(* ------------------------------------------------------------------ *)

let e10_run cfg profile ~seed =
  let leaves = pick profile ~quick:1024 ~full:4096 / 2 in
  let levels = pick profile ~quick:11 ~full:13 in
  let rows =
    [
      ("double star", 2 * (leaves + 1), double_star leaves);
      ("heavy binary tree", (1 lsl levels) - 1, heavy_tree levels);
    ]
  in
  let label (family, n, _) = Printf.sprintf "%s (n=%d)" family n in
  sweep cfg profile ~seed ~id:"E10" ~title:"E10: combining push-pull with visit-exchange"
    ~claim:
      "Section 1: \"agent-based information dissemination, separately or \
       in combination with push-pull, can significantly improve the \
       broadcast time\""
    ~header:[ "graph"; "push-pull"; "visit-exchange"; "combined" ]
    ~label
    ~graph:(fun (_, _, build) -> Sweep.Fixed build)
    ~columns:(List.map Fun.const [ Protocol.push_pull; vx; comb ])
    ~max_rounds:(fun (_, n, _) -> 60 * n)
    ~render:(fun row -> times (label row))
    ~notes:(fun _ ->
      [
        "push-pull is polynomial on the double star; visit-exchange is \
         polynomial on the heavy tree; the combination is logarithmic on \
         both";
      ])
    rows

(* ------------------------------------------------------------------ *)
(* A1: agent density (Section 9 open problem)                          *)
(* ------------------------------------------------------------------ *)

let a1_run cfg profile ~seed =
  let n = pick profile ~quick:1024 ~full:4096 in
  let label = Printf.sprintf "%.2f" in
  sweep cfg profile ~seed ~id:"A1"
    ~title:
      (Printf.sprintf "A1: agent density sweep on random %d-regular, n = %d"
         (regular_d n) n)
    ~claim:"ablation: |A| = alpha n for alpha in [1/4, 4]"
    ~header:[ "alpha"; "visit-exchange"; "meet-exchange" ]
    ~label
    ~graph:(fun _ -> regular_graph n)
    ~columns:
      [
        (fun alpha -> Protocol.visit_exchange ~alpha ());
        (fun alpha -> Protocol.meet_exchange ~alpha ());
      ]
    ~max_rounds:(Fun.const 100_000)
    ~render:(fun a -> times (label a))
    ~notes:(fun _ ->
      [
        "the paper assumes |A| = Theta(n) and leaves sub-linear agent \
         counts open (Section 9); broadcast slows gracefully as alpha \
         shrinks";
      ])
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

(* ------------------------------------------------------------------ *)
(* A2: lazy vs non-lazy walks on a bipartite graph (Section 3)         *)
(* ------------------------------------------------------------------ *)

let a2_run cfg profile ~seed =
  let leaves = pick profile ~quick:512 ~full:2048 in
  let cap = 2000 in
  let meetx laziness =
    Protocol.Meet_exchange { agents = Placement.Linear alpha; laziness }
  in
  sweep cfg profile ~seed ~id:"A2"
    ~title:(Printf.sprintf "A2: lazy walks on the bipartite star (n = %d)" (leaves + 1))
    ~claim:
      "Section 3: on bipartite graphs meet-exchange may never finish; lazy \
       walks guarantee E[T_meetx] < infinity"
    ~header:[ "variant"; "broadcast time"; "completed" ]
    ~label:fst
    ~graph:(fun _ -> Sweep.Fixed (fun () -> (Gen_basic.star ~leaves, 0)))
    ~columns:[ snd ] ~max_rounds:(Fun.const cap)
    ~render:(fun (label, _) ms ->
      let m = ms.(0) in
      let runs = Array.length m.Replicate.times in
      [ label; time_cell m; Printf.sprintf "%d/%d" (runs - m.Replicate.capped) runs ])
    ~notes:(fun _ ->
      [
        "the star is bipartite: non-lazy walks split into parity classes \
         that never meet, so T_meetx = infinity unless walks are lazy \
         (Section 3's remark)";
        Printf.sprintf "round cap: %d" cap;
      ])
    [
      ("meet-exchange, lazy", meetx Protocol.Lazy_on);
      ("meet-exchange, non-lazy", meetx Protocol.Lazy_off);
    ]

(* ------------------------------------------------------------------ *)
(* A3: stationary vs one-agent-per-vertex placement (Section 1)        *)
(* ------------------------------------------------------------------ *)

let a3_run cfg profile ~seed =
  let one_per_vertex =
    Protocol.Visit_exchange { agents = Placement.One_per_vertex; laziness = Protocol.Lazy_off }
  in
  sweep cfg profile ~seed ~id:"A3"
    ~title:"A3: initial placement, stationary vs one-per-vertex (visit-exchange)"
    ~claim:"placement choice does not change the broadcast time asymptotics on regular graphs"
    ~header:[ "n (d)"; "stationary"; "one-per-vertex" ]
    ~label:regular_label ~graph:regular_graph
    ~columns:(List.map Fun.const [ vx; one_per_vertex ])
    ~max_rounds:(Fun.const 100_000)
    ~render:(fun n -> times (regular_label n))
    ~notes:(fun _ ->
      [
        "Section 1: \"our results for regular graphs hold also in the case \
         where there is exactly one agent starting from each node\"";
      ])
    (pick profile ~quick:[ 512; 1024 ] ~full:[ 512; 1024; 2048; 4096 ])

(* ------------------------------------------------------------------ *)
(* A4: bandwidth fairness (Section 1)                                  *)
(* ------------------------------------------------------------------ *)

let a4_run _cfg profile ~seed =
  let leaves = pick profile ~quick:256 ~full:1024 in
  let ds = Gen_paper.double_star ~leaves_per_star:leaves in
  let g = ds.Gen_paper.ds_graph in
  let source = ds.Gen_paper.ds_leaf_a in
  let rounds = pick profile ~quick:200 ~full:500 in
  let run_with spec record seed_off =
    let tr = P.Traffic.create g in
    let rng = Rng.of_int (cell_seed seed seed_off 0) in
    (* run for a fixed number of rounds so both protocols get equal time *)
    let (_ : P.Run_result.t) =
      Protocol.run ~obs:(record tr) spec rng g ~source ~max_rounds:rounds
    in
    tr
  in
  (* push-pull never finishes that fast on the double star, so both traffic
     snapshots cover comparable horizons *)
  let tr_pp = run_with Protocol.push_pull P.Traffic.calls 1 in
  let tr_vx = run_with vx P.Traffic.steps 2 in
  let bridge_pp = P.Traffic.count tr_pp ds.Gen_paper.ds_center_a ds.Gen_paper.ds_center_b in
  let bridge_vx = P.Traffic.count tr_vx ds.Gen_paper.ds_center_a ds.Gen_paper.ds_center_b in
  let f_pp = P.Traffic.fairness tr_pp in
  let f_vx = P.Traffic.fairness tr_vx in
  let row name (f : P.Traffic.fairness) bridge =
    [
      name;
      Printf.sprintf "%.2f" f.P.Traffic.mean;
      Printf.sprintf "%.2f" (float_of_int f.P.Traffic.min_load /. f.P.Traffic.mean);
      Printf.sprintf "%.2f" f.P.Traffic.max_over_mean;
      string_of_int bridge;
      Printf.sprintf "%.3f" (float_of_int bridge /. f.P.Traffic.mean);
    ]
  in
  [
    Table.make
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          Printf.sprintf
            "both protocols ran for exactly %d rounds on the double star (n = %d)"
            rounds (Graph.n g);
          "\"bridge uses\" counts traffic on the center-center edge: \
           visit-exchange uses every edge at roughly the mean rate \
           (bridge/mean near 1), push-pull starves the bridge by a factor \
           Theta(n) (Section 1's local fairness claim)";
        ]
      ~title:"A4: per-edge bandwidth fairness on the double star"
      ~claim:
        "Section 1: agent-based protocols use all edges with the same \
         frequency; push-pull does not"
      ~header:
        [ "protocol"; "mean edge load"; "min/mean"; "max/mean"; "bridge uses"; "bridge/mean" ]
      [ row "push-pull" f_pp bridge_pp; row "visit-exchange" f_vx bridge_vx ];
  ]

(* ------------------------------------------------------------------ *)
(* R1: sub-linear agents on random regular graphs (Section 9; [14])    *)
(* ------------------------------------------------------------------ *)

(* R1 and R2: meet-exchange with k agents from stationarity (lazy iff the
   graph is bipartite), one row per k, read against a predicted time. *)
let k_agents_sweep cfg profile ~seed ~id ~title ~claim ~header ~graph ~cap ~predicted ~notes ks =
  sweep cfg profile ~seed ~id ~title ~claim ~header ~label:string_of_int
    ~graph:(Fun.const graph) ~columns:
      [
        (fun k ->
          Protocol.Meet_exchange { agents = Placement.Stationary k; laziness = Protocol.Lazy_auto });
      ] ~max_rounds:(Fun.const cap)
    ~render:(fun k ms ->
      let p = predicted (float_of_int k) in
      times (string_of_int k) ms
      @ [ Printf.sprintf "%.0f" p; Printf.sprintf "%.2f" (Replicate.mean ms.(0) /. p) ])
    ~notes:(Fun.const notes) ks

let r1_run cfg profile ~seed =
  let n = pick profile ~quick:1024 ~full:4096 in
  let ks = pick profile ~quick:[ 8; 16; 32; 64; 128 ] ~full:[ 8; 16; 32; 64; 128; 256; 512 ] in
  k_agents_sweep cfg profile ~seed ~id:"R1"
    ~title:"R1: meet-exchange with k << n agents on random regular graphs"
    ~claim:
      "Section 9 open problem (sub-linear agents), calibrated against the \
       [14] bound E[T] = O(n log k / k)"
    ~header:[ "k"; "meet-exchange"; "n ln k / k"; "T / (n ln k / k)" ]
    ~graph:(regular_graph n) ~cap:(200 * n)
    ~predicted:(fun k -> float_of_int n *. log k /. k)
    ~notes:
      [
        Printf.sprintf "random %d-regular, n = %d, k agents from stationarity"
          (regular_d n) n;
        "Cooper-Frieze-Radzik [14]: E[T_meetx] = O(n log k / k) for k <= n \
         random walks on random regular graphs — the last column should \
         stay bounded as k varies";
      ]
    ks

(* ------------------------------------------------------------------ *)
(* R2: sub-linear agents on the torus (Section 9; [39], [35])          *)
(* ------------------------------------------------------------------ *)

let r2_run cfg profile ~seed =
  let side = pick profile ~quick:24 ~full:48 in
  let n = side * side in
  let ks = pick profile ~quick:[ 4; 16; 64; 256 ] ~full:[ 4; 16; 64; 256; 1024 ] in
  k_agents_sweep cfg profile ~seed ~id:"R2"
    ~title:"R2: meet-exchange with k agents on the 2-d torus"
    ~claim:
      "Section 2 (related work [39], [35]): k random walks spread a rumor \
       on the 2-d grid in Theta~(n / sqrt k) rounds"
    ~header:[ "k"; "meet-exchange"; "n / sqrt k"; "T / (n / sqrt k)" ]
    ~graph:(Sweep.Fixed (fun () -> (Gen_basic.torus ~rows:side ~cols:side, 0)))
    ~cap:(500 * n)
    ~predicted:(fun k -> float_of_int n /. sqrt k)
    ~notes:
      [
        Printf.sprintf "%dx%d torus (n = %d), k agents, lazy walks (bipartite)" side side n;
        "Pettarin et al. [39]: broadcast time on the 2-d grid is \
         Theta~(n / sqrt k) — the normalized column should stay within a \
         polylog band as k grows";
      ]
    ks

(* ------------------------------------------------------------------ *)
(* R6: push-pull vs the conductance bound (Section 2; [11])            *)
(* ------------------------------------------------------------------ *)

let r6_run cfg profile ~seed =
  let families =
    [
      ("complete n=128", Gen_basic.complete 128, 0);
      ("hypercube n=256", Gen_basic.hypercube ~dim:8, 0);
      ("torus 12x12", Gen_basic.torus ~rows:12 ~cols:12, 0);
      ("necklace 16x8", Gen_basic.necklace ~cliques:16 ~clique_size:8, 0);
      ( "double star n=130",
        (Gen_paper.double_star ~leaves_per_star:64).Gen_paper.ds_graph,
        2 );
      ("cycle n=128", Gen_basic.cycle 128, 0);
    ]
  in
  sweep cfg profile ~seed ~id:"R6" ~title:"R6: push-pull against the conductance bound"
    ~claim:
      "Section 2 (related work [11]): push-pull completes in O(phi^-1 log \
       n) rounds on any graph with conductance phi"
    ~header:[ "graph"; "push-pull"; "phi"; "ln n / phi"; "T*phi/ln n" ]
    ~label:(fun (label, _, _) -> label)
    ~graph:(fun (_, g, source) -> Sweep.Fixed (fun () -> (g, source)))
    ~columns:[ Fun.const Protocol.push_pull ]
    ~max_rounds:(fun (_, g, _) -> 1000 * Graph.n g)
    ~render:(fun (label, g, _) ms ->
      let phi = Rumor_graph.Spectral.conductance_sweep ~iterations:2000 g in
      let bound = log (float_of_int (Graph.n g)) /. phi in
      times label ms
      @ [
          Printf.sprintf "%.4f" phi;
          Printf.sprintf "%.0f" bound;
          Printf.sprintf "%.2f" (Replicate.mean ms.(0) /. bound);
        ])
    ~notes:(fun _ ->
      [
        "phi is the sweep-cut conductance estimate (exact on the \
         bottleneck families); the bound is (1/phi) ln n";
        "Chierichetti et al. [11]: T_ppull = O(phi^-1 log n) — the last \
         column must stay bounded by a constant across four orders of \
         magnitude of phi";
      ])
    families

(* ------------------------------------------------------------------ *)
(* R7: meet-exchange vs the exact meeting time (Section 2; [16])       *)
(* ------------------------------------------------------------------ *)

let r7_run _cfg profile ~seed =
  let families =
    [
      ("complete n=24", Gen_basic.complete 24, false);
      ("cycle n=25", Gen_basic.cycle 25, false);
      ("torus 5x5", Gen_basic.torus ~rows:5 ~cols:5, false);
      ("lollipop 12+12", Gen_basic.lollipop ~clique_size:12 ~tail_len:12, false);
      ("star n=25 (lazy)", Gen_basic.star ~leaves:24, true);
    ]
  in
  let reps = reps profile in
  let rows =
    List.mapi
      (fun i (label, g, lazy_walk) ->
        let n = Graph.n g in
        let meeting = Rumor_graph.Hitting.max_meeting_time ~lazy_walk g in
        (* two agents: the regime of the [16] bound *)
        let master = Rng.of_int (cell_seed seed i 0) in
        let stats = Stats.create () in
        for _ = 1 to reps do
          let rng = Rng.split master in
          let r =
            P.Engine.meet_exchange ~lazy_walk rng g ~source:0
              ~agents:(Placement.Stationary 2)
              ~max_rounds:(int_of_float (2000.0 *. meeting))
              ()
          in
          match r.P.Run_result.broadcast_time with
          | Some t -> Stats.add_int stats t
          | None -> ()
        done;
        let t = Stats.mean stats in
        [
          label;
          Printf.sprintf "%.1f" t;
          Printf.sprintf "%.1f" meeting;
          Printf.sprintf "%.0f" (meeting *. log (float_of_int n));
          Printf.sprintf "%.2f" (t /. (meeting *. log (float_of_int n)));
        ])
      families
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "M is the exact maximum expected meeting time of two walks, \
           computed by solving the product-chain linear system \
           (Rumor_graph.Hitting); T is measured with exactly 2 agents";
          "Dimitriou-Nikoletseas-Spirakis [16]: T_meetx = O(M log n), and \
           the bound is tight on some graphs — the last column stays below \
           a small constant";
        ]
      ~title:"R7: meet-exchange (2 agents) vs the exact meeting time"
      ~claim:
        "Section 2 (related work [16]): the meet-exchange broadcast time is \
         at most O(log n) times the meeting time of two random walks"
      ~header:[ "graph"; "T_meetx"; "M (exact)"; "M ln n"; "T / (M ln n)" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* A8: continuous vs synchronized meet-exchange ([33], [34])           *)
(* ------------------------------------------------------------------ *)

let a8_run _cfg profile ~seed =
  let reps = reps profile in
  let n = pick profile ~quick:256 ~full:1024 in
  let families =
    [
      ( "star (bipartite)",
        (let star = Gen_basic.star ~leaves:(n - 1) in
         fun _rng -> (star, 0)),
        true );
      ( "random regular",
        (fun rng ->
          (Gen_random.random_regular_connected rng ~n ~d:(regular_d n), 0)),
        false );
    ]
  in
  let rows =
    List.mapi
      (fun i (label, graph, bipartite) ->
        let master = Rng.of_int (cell_seed seed i 0) in
        let cont = Stats.create () in
        let disc = Stats.create () in
        let disc_nonlazy_completed = ref 0 in
        for _ = 1 to reps do
          let rng = Rng.split master in
          let g, source = graph rng in
          (* ~lazy_walk:false on purpose: A8 studies the pure continuous
             process, where parity needs no lazy fix. *)
          (match
             (P.Async_engine.meet_exchange ~lazy_walk:false rng g ~source
                ~agents:(Placement.Linear alpha) ~max_time:1e6)
               .P.Async_meet_exchange.broadcast_time
           with
          | Some t -> Stats.add cont t
          | None -> ());
          let d =
            P.Engine.meet_exchange ~lazy_walk:true rng g ~source
              ~agents:(Placement.Linear alpha) ~max_rounds:100_000 ()
          in
          (match d.P.Run_result.broadcast_time with
          | Some t -> Stats.add_int disc t
          | None -> ());
          let nl =
            P.Engine.meet_exchange ~lazy_walk:false rng g ~source
              ~agents:(Placement.Linear alpha) ~max_rounds:2000 ()
          in
          if nl.P.Run_result.broadcast_time <> None then incr disc_nonlazy_completed
        done;
        [
          label;
          Printf.sprintf "%.1f" (Stats.mean cont);
          Printf.sprintf "%.1f" (Stats.mean disc);
          Printf.sprintf "%d/%d" !disc_nonlazy_completed reps;
          (if bipartite then "parity trap" else "-");
        ])
      families
  in
  [
    Table.make
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      ~notes:
        [
          "continuous time: each agent moves at the rings of a unit-rate \
           Poisson clock (the [33]/[34] model); one time unit = one expected \
           move per agent, comparable to a synchronous round";
          "on bipartite graphs the synchronized non-lazy process deadlocks \
           in parity classes; continuous time needs no laziness at all";
        ]
      ~title:"A8: continuous-time vs synchronized meet-exchange"
      ~claim:
        "Section 2 ([33], [34]) studies meet-exchange in continuous time; \
         the paper's lazy-walk fix (Section 3) exists only because of \
         synchronized rounds"
      ~header:
        [ "graph"; "continuous"; "discrete (lazy)"; "non-lazy done"; "remark" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* A9: sync/async push agree to a constant (Section 2, [41])           *)
(* ------------------------------------------------------------------ *)

(* The async kernels' end-to-end sanity gate.  Sauerwald [41] shows
   asynchronous push matches synchronous push asymptotically on regular
   graphs, and both are Theta(log n) on G(n,p) above the connectivity
   threshold — so the mean async/sync ratio must sit inside a fixed
   constant band.  Every column goes through Protocol, as every other
   suite cell does, so the async columns run on Async_engine's
   superposed-clock kernel; the verdict column doubles as a Theorem-level
   regression check on that kernel. *)
let a9_run cfg profile ~seed =
  let ns = pick profile ~quick:[ 256; 512 ] ~full:[ 512; 1024; 2048; 4096 ] in
  let lo = 1.0 /. 3.0 and hi = 3.0 in
  let gnp n = Sweep.Sampled (fun rng -> (connected_er rng ~n, 0)) in
  (* row i is model index * |ns| + size index *)
  let rows =
    List.concat_map
      (fun (model, graph) -> List.map (fun n -> (model, n, graph n)) ns)
      [ ("G(n,p)", gnp); ("random regular", regular_graph) ]
  in
  sweep cfg profile ~seed ~id:"A9"
    ~title:"A9: sync vs async push on G(n,p) and random regular"
    ~claim:
      "Section 2 ([41]): asynchronous push completes within a constant \
       factor of synchronous push on G(n,p) and random-regular graphs"
    ~header:
      [ "graph"; "n"; "sync push"; "async push"; "async/sync"; "async push-pull"; "verdict" ]
    ~label:(fun (model, n, _) -> Printf.sprintf "%s %d" model n)
    ~graph:(fun (_, _, graph) -> graph)
    ~columns:(List.map Fun.const [ Protocol.push; Protocol.async_push; Protocol.async_push_pull ])
    ~max_rounds:(Fun.const 100_000)
    ~render:(fun (model, n, _) ms ->
      let r = Replicate.mean ms.(1) /. Replicate.mean ms.(0) in
      [
        model;
        string_of_int n;
        time_cell ms.(0);
        time_cell ms.(1);
        Printf.sprintf "%.2f" r;
        time_cell ms.(2);
        (if r >= lo && r <= hi then "ok" else "FAIL");
      ])
    ~notes:(fun _ ->
      [
        "async times are continuous and rounded up to integer marks by \
         to_run_result; one time unit = one expected clock ring per \
         vertex, directly comparable to a synchronous round";
        Printf.sprintf
          "verdict is ok iff the mean async/sync push ratio lies in [%.2f, \
           %.2f] — the constant band the asymptotic agreement predicts; \
           async push-pull is shown alongside, ungated"
          lo hi;
        "the async columns run on the superposed-clock kernel \
         (Async_engine), making this a Theorem-level check of that kernel";
      ])
    rows

(* ------------------------------------------------------------------ *)
(* A10: dense vs sparse walker representations agree distributionally  *)
(* ------------------------------------------------------------------ *)

(* The sparse-walker engine's end-to-end sanity gate.  Count-compressed
   occupancy is exchangeable with per-agent positions up to informed
   status, so the broadcast-time distribution must be the same law; the
   representations only reshuffle which walker takes which step.  The
   finite-sample analogue: paired dense/sparse cells on the same seeds
   must have mean broadcast times within a fixed constant band.  We use
   the golden ratio phi as the (generous) band edge — any representation
   bug (mass leak, lost witness, wrong self-loop slot) blows far past
   it, while honest sampling noise at these reps sits well inside. *)
let a10_run cfg profile ~seed =
  let n = pick profile ~quick:256 ~full:1024 in
  let reps = reps profile in
  let seeds_per_cell = 3 in
  let phi = 1.618033988749895 in
  let lo = 1.0 /. phi and hi = phi in
  let side = int_of_float (Float.round (sqrt (float_of_int n))) in
  let families =
    [
      ( "complete",
        let g = Gen_basic.complete n in
        fun _rng -> (g, 0) );
      ( Printf.sprintf "torus %dx%d" side side,
        let g = Gen_basic.torus ~rows:side ~cols:side in
        fun _rng -> (g, 0) );
      ("G(n,p)", fun rng -> (connected_er rng ~n, 0));
      ( "random regular",
        fun rng -> (Gen_random.random_regular_connected rng ~n ~d:(regular_d n), 0) );
    ]
  in
  let specs = [ ("visit-exchange", vx); ("meet-exchange", mx) ] in
  (* The two columns differ only in [walkers], which overrides the suite's
     setting.  The same cell seed drives the dense and sparse measurement
     of a pair, so the comparison is paired: same graphs, same placements,
     independent walk randomness past the divergence point. *)
  let measure_walkers ~walkers ~seed ~graph ~spec =
    Replicate.broadcast_times ?sink:cfg.Sweep.metrics ~graph_name:"A10" ~jobs:cfg.jobs
      ?trace:cfg.trace ~walkers ~seed ~reps ~graph ~spec ~max_rounds:(100 * n) ()
  in
  let rows =
    List.concat
      (List.mapi
         (fun fi (family, graph) ->
           List.mapi
             (fun si (sname, spec) ->
               let i = (fi * List.length specs) + si in
               let mean_over walkers =
                 let mean s =
                   Replicate.mean
                     (measure_walkers ~walkers ~seed:(cell_seed seed i s) ~graph ~spec)
                 in
                 List.fold_left ( +. ) 0.0 (List.init seeds_per_cell mean)
                 /. float_of_int seeds_per_cell
               in
               let dense = mean_over Protocol.Dense in
               let sparse = mean_over Protocol.Sparse in
               let ratio = sparse /. dense in
               [
                 family;
                 sname;
                 Printf.sprintf "%.1f" dense;
                 Printf.sprintf "%.1f" sparse;
                 Printf.sprintf "%.2f" ratio;
                 (if ratio >= lo && ratio <= hi then "ok" else "FAIL");
               ])
             specs)
         families)
  in
  [
    Table.make
      ~aligns:
        [
          Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right;
        ]
      ~notes:
        [
          Printf.sprintf
            "n = %d, %d base seeds x %d replications per cell; both columns \
             run the engine kernels, dense per-agent positions vs \
             count-compressed per-vertex occupancy" n seeds_per_cell reps;
          Printf.sprintf
            "verdict is ok iff the mean sparse/dense broadcast-time ratio \
             lies in [%.3f, %.3f] (the golden-ratio band); the \
             representations sample the same process, so only a kernel bug \
             moves the mean" lo hi;
          "sparse runs are seed-deterministic but not bit-identical to \
           dense — this distributional gate is the contract (see \
           Sparse_walkers)";
        ]
      ~title:"A10: dense vs sparse walker distributional gate"
      ~claim:
        "Count-compressed occupancy kernels (Sparse_walkers) simulate the \
         same visit-/meet-exchange processes as the per-agent dense \
         kernels: broadcast-time means agree within a constant band on \
         every graph family"
      ~header:[ "graph"; "protocol"; "dense"; "sparse"; "sparse/dense"; "verdict" ]
      rows;
  ]

(* ------------------------------------------------------------------ *)
(* R9: social-network models — push-pull beats push ([12], [17])       *)
(* ------------------------------------------------------------------ *)

let r9_run cfg profile ~seed =
  let m = 4 in
  sweep cfg profile ~seed ~id:"R9"
    ~title:"R9: push vs push-pull on preferential-attachment graphs"
    ~claim:
      "Section 1/2 (related work [12], [17]): push-pull is significantly \
       faster than push on social-network models"
    ~header:[ "n"; "push"; "push-pull"; "push/ppull"; "visit-exchange" ]
    ~label:string_of_int
    ~graph:(fun n ->
      Sweep.Sampled (fun rng -> (Gen_random.preferential_attachment rng ~n ~m, 0)))
    ~columns:(List.map Fun.const [ Protocol.push; Protocol.push_pull; vx ])
    ~max_rounds:(fun n -> 100 * n)
    ~render:(fun n ms ->
      [
        string_of_int n;
        time_cell ms.(0);
        time_cell ms.(1);
        ratio ms.(0) ms.(1);
        time_cell ms.(2);
      ])
    ~notes:(fun _ ->
      [
        Printf.sprintf
          "Barabasi-Albert preferential attachment, m = %d edges per new \
           vertex (power-law degrees)" m;
        "Chierichetti-Lattanzi-Panconesi [12] and Doerr-Fouz-Friedrich \
         [17]: push-pull is fast (even sublogarithmic) on \
         preferential-attachment graphs while push pays for the hubs' \
         coupon collection — the push/push-pull ratio should grow with n";
      ])
    (pick profile ~quick:[ 512; 1024; 2048 ] ~full:[ 512; 1024; 2048; 4096; 8192 ])

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let all =
  [
    { id = "E1"; title = "star"; paper_ref = "Fig 1(a), Lemma 2"; run = e1_run };
    { id = "E2"; title = "double star"; paper_ref = "Fig 1(b), Lemma 3"; run = e2_run };
    { id = "E3"; title = "heavy binary tree"; paper_ref = "Fig 1(c), Lemma 4"; run = e3_run };
    { id = "E4"; title = "Siamese heavy trees"; paper_ref = "Fig 1(d), Lemma 8"; run = e4_run };
    { id = "E5"; title = "cycle of stars of cliques"; paper_ref = "Fig 1(e), Lemma 9"; run = e5_run };
    { id = "E6"; title = "push ~ visit-exchange on regular graphs"; paper_ref = "Theorem 1 (10, 19)"; run = e6_run };
    { id = "E7"; title = "visit-exchange vs meet-exchange"; paper_ref = "Theorem 23"; run = e7_run };
    { id = "E8"; title = "logarithmic lower bounds"; paper_ref = "Theorems 24, 25"; run = e8_run };
    { id = "E9"; title = "coupling invariants"; paper_ref = "Section 5, Lemmas 13/14"; run = e9_run };
    { id = "E10"; title = "push-pull + visit-exchange combination"; paper_ref = "Section 1"; run = e10_run };
    { id = "A1"; title = "agent density ablation"; paper_ref = "Section 9"; run = a1_run };
    { id = "A2"; title = "lazy walk ablation"; paper_ref = "Section 3"; run = a2_run };
    { id = "A3"; title = "placement ablation"; paper_ref = "Section 1"; run = a3_run };
    { id = "A4"; title = "bandwidth fairness ablation"; paper_ref = "Section 1"; run = a4_run };
    { id = "A8"; title = "continuous-time meet-exchange"; paper_ref = "Section 2, [33], [34]"; run = a8_run };
    { id = "A9"; title = "sync vs async push constant-factor gate"; paper_ref = "Section 2, [41]"; run = a9_run };
    { id = "A10"; title = "dense vs sparse walker distributional gate"; paper_ref = "Sections 3, 9"; run = a10_run };
    { id = "R1"; title = "sub-linear agents, random regular"; paper_ref = "Section 9, [14]"; run = r1_run };
    { id = "R2"; title = "sub-linear agents, 2-d torus"; paper_ref = "Section 2, [39]"; run = r2_run };
    { id = "R6"; title = "push-pull vs conductance bound"; paper_ref = "Section 2, [11]"; run = r6_run };
    { id = "R7"; title = "meet-exchange vs exact meeting time"; paper_ref = "Section 2, [16]"; run = r7_run };
    { id = "R9"; title = "social-network models"; paper_ref = "Section 2, [12], [17]"; run = r9_run };
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> String.uppercase_ascii e.id = id) all

let select ids walkers =
  let selected =
    match ids with
    | [] -> all
    | wanted ->
        List.map
          (fun id ->
            match find id with
            | Some e -> e
            | None ->
                invalid_arg
                  (Printf.sprintf "unknown experiment %s (known: %s)" id
                     (String.concat ", " (List.map (fun e -> e.id) all))))
          wanted
  in
  (* E10 measures the combined protocol, which has no sparse-walker
     kernel: refuse the pair before any experiment spends its time *)
  if walkers = Protocol.Sparse && List.exists (fun e -> String.equal e.id "E10") selected then
    invalid_arg
      "--walkers sparse cannot run E10: the combined protocol has no \
       sparse-walker kernel (pick other experiments, or dense/auto walkers)";
  selected

let run_one (cfg : Sweep.config) profile ~seed e =
  (* one span per experiment, so the trace timeline reads as E1, E2, ... *)
  Rumor_obs.Trace.with_span cfg.trace e.id (fun () -> e.run cfg profile ~seed)

let run_all ?(ids = []) ?metrics ?trace ?(jobs = 1) ?(walkers = Protocol.Dense)
    profile ~seed =
  let cfg = { Sweep.metrics; jobs; walkers; trace } in
  List.map (fun e -> (e, run_one cfg profile ~seed e)) (select ids walkers)
