(* The three workloads: inputs built from the workload seed, and the
   fixed-seed job that every timed repeat runs.

   A workload's set-up draws every generator it will ever use from the
   workload seed, in a fixed order, and each repeat of the job starts from
   copies of those generators — so the repeats of one run do exactly the
   same work, while another seed gives other graphs and other runs.

   Push, visit-exchange and async push end when the last low-degree vertex
   hears the rumor, so their work varies a lot (per run at n = 10^4: a
   coefficient of variation of 0.16-0.28 between graphs and 0.2-0.4
   between runs on one graph).  The gnp workloads therefore spread their
   runs over several graphs and give these kernels small shares, so that
   another seed changes a job's total work by a few percent only. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Algo = Rumor_graph.Algo
module Gen_random = Rumor_graph.Gen_random
module Gen_paper = Rumor_graph.Gen_paper
module Placement = Rumor_agents.Placement
module P = Rumor_protocols
module Replicate = Rumor_sim.Replicate
module Protocol = Rumor_sim.Protocol
module Run_record = Rumor_obs.Run_record
open Measure

let rngs master k = Array.init k (fun _ -> Rng.split master)
let int_seed master = Int64.to_int (Rng.bits64 master) land 0x3fff_ffff
let alpha_tag alpha = Printf.sprintf "a%g" alpha

(* ------------------------------------------------------------- graphs *)

type gnp = { g : Graph.t; build_s : float; check_s : float }

(* One connected G(n, 1.25 ln n / n): average degree 1.25 ln n, the sparse
   regime of the engine benches.  A sample with an isolated vertex or two
   components is drawn again (about one seed in twenty at these sizes). *)
let gnp ?trace rng ~n =
  let nf = float_of_int n in
  let p = 1.25 *. log nf /. nf in
  let rec attempt tries =
    if tries = 20 then failwith "no connected G(n, p) sample in 20 tries";
    let g, build_s =
      span trace "graph.build" (fun () ->
          time (fun () -> Gen_random.erdos_renyi (Rng.split rng) ~n ~p))
    in
    let ok, check_s =
      span trace "graph.check" (fun () ->
          time (fun () -> Graph.min_degree g >= 1 && Algo.is_connected g))
    in
    if ok then { g; build_s; check_s } else attempt (tries + 1)
  in
  attempt 0

(* A gnp workload's graphs; run [i] of every cell runs on graph
   [i mod graphs]. *)
let gnps ?trace master ~graphs ~n = Array.init graphs (fun _ -> gnp ?trace (Rng.split master) ~n)

let graph_of gnps i = gnps.(i mod Array.length gnps).g

(* A run finished its broadcast when it was not capped and its last curve
   entry counts every party: vertices, or agents for meet-exchange. *)
let finished (r : P.Run_result.t) ~parties =
  Option.is_some r.P.Run_result.broadcast_time
  && r.P.Run_result.informed_curve.(Array.length r.P.Run_result.informed_curve - 1)
     = parties

(* Every failed run is reported on stderr, so that a failing benchmark says
   which cell failed. *)
let report_failure cell ~informed ~parties =
  Printf.eprintf "FAIL %s: %d of %d parties informed when the run stopped\n%!" cell
    informed parties

(* ----------------------------------------------------------- gnp-sync *)

module Sync = struct
  let n = 10_000
  let graphs = 8

  type kernel =
    | Push
    | Push_pull
    | Walk of { meet : bool; mode : P.Sparse_walkers.mode; alpha : float }

  (* Seed counts per kernel, spread evenly over the graphs: the frontier
     kernels (push, push-pull) take about 40% of the job and the eight
     walker kernels the rest.  Push and visit-exchange vary most from run
     to run; they get the smaller shares, push-pull and meet-exchange the
     larger. *)
  let plan =
    let walk meet mode alpha seeds =
      let kname = if meet then "meet_exchange" else "visit_exchange" in
      ( Printf.sprintf "engine.%s.%s.%s" kname
          (P.Sparse_walkers.mode_to_string mode)
          (alpha_tag alpha),
        Walk { meet; mode; alpha },
        seeds )
    in
    let open P.Sparse_walkers in
    [
      ("engine.push", Push, 8);
      ("engine.push_pull", Push_pull, 112);
      walk false Dense 0.25 4;
      walk false Dense 1.0 4;
      walk false Sparse 0.25 4;
      walk false Sparse 1.0 4;
      walk true Dense 0.25 8;
      walk true Dense 1.0 8;
      walk true Sparse 0.25 8;
      walk true Sparse 1.0 8;
    ]

  type env = { gnps : gnp array; runs : (string * kernel * Rng.t array) list }

  let setup ?trace seed =
    let master = Rng.of_int seed in
    let gnps = gnps ?trace master ~graphs ~n in
    let runs = List.map (fun (name, k, s) -> (name, k, rngs master s)) plan in
    { gnps; runs }

  let run_kernel ~max_rounds g kernel rng =
    let open P.Engine in
    match kernel with
    | Push -> (push rng g ~source:0 ~max_rounds (), Graph.n g, 0)
    | Push_pull -> (push_pull rng g ~source:0 ~max_rounds (), Graph.n g, 0)
    | Walk { meet; mode; alpha } ->
        let agents = Placement.Linear alpha in
        let k = Placement.count agents g in
        let run = if meet then meet_exchange else visit_exchange in
        let r = run ~walkers:mode rng g ~source:0 ~agents ~max_rounds () in
        (r, (if meet then k else Graph.n g), k)

  let job ?trace ~max_rounds env =
    outcome_of
      (List.map
         (fun (name, kernel, seeds) ->
           run_cell trace name (fun ~timed ->
               let rounds = ref 0 and contacts = ref 0 and failed = ref 0 in
               let agents = ref 0 in
               Array.iteri
                 (fun i rng ->
                   let g = graph_of env.gnps i in
                   let r, parties, k =
                     timed (fun () -> run_kernel ~max_rounds g kernel (Rng.copy rng))
                   in
                   rounds := !rounds + r.P.Run_result.rounds_run;
                   contacts := !contacts + r.P.Run_result.contacts;
                   agents := k;
                   if not (finished r ~parties) then begin
                     let curve = r.P.Run_result.informed_curve in
                     report_failure name ~informed:curve.(Array.length curve - 1) ~parties;
                     incr failed
                   end)
                 seeds;
               let counts = [ ("rounds", !rounds); ("contacts", !contacts) ] in
               let counts =
                 if !agents > 0 then counts @ [ ("agents", !agents) ] else counts
               in
               (counts, Array.length seeds, !failed)))
         env.runs)
end

(* ---------------------------------------------------------- gnp-async *)

module Async = struct
  let n = 10_000
  let graphs = 8

  type kernel = Push of P.Async_push.variant | Meet of P.Sparse_walkers.mode

  (* Async push varies most from run to run (its ring count has a
     coefficient of variation of about 0.5 per run, against 0.1-0.2 for the
     others) and costs the most per run: it gets one run, about 4% of the
     job.  A cell's share of the job's variance grows with the square root
     of its run count, so the steady cells get the runs instead.  Async
     push also runs last: the heap a run leaves is reused, not returned,
     and run first its heap, which grows with its ring count, set the
     process's peak (15-38 MB over the seeds); run last it fits in the heap
     the steady cells leave, and the peak varies by 1-2%. *)
  let plan =
    [
      ("async_engine.push_pull", Push P.Async_push.Async_push_pull, 20);
      ("async_engine.meet_exchange.dense", Meet P.Sparse_walkers.Dense, 8);
      ("async_engine.meet_exchange.sparse", Meet P.Sparse_walkers.Sparse, 20);
      ("async_engine.push", Push P.Async_push.Async_push, 1);
    ]

  type env = { gnps : gnp array; runs : (string * kernel * Rng.t array) list }

  let setup ?trace seed =
    let master = Rng.of_int seed in
    let gnps = gnps ?trace master ~graphs ~n in
    let runs = List.map (fun (name, k, s) -> (name, k, rngs master s)) plan in
    { gnps; runs }

  (* (finished, informed, parties, rings, agents) of one run; the time cap
     is [max_rounds] time units, as on the [Protocol.run] path *)
  let run_kernel ~max_rounds g kernel rng =
    let max_time = float_of_int max_rounds in
    match kernel with
    | Push variant ->
        let r = P.Async_engine.push rng g ~variant ~source:0 ~max_time in
        let module A = P.Async_push in
        ( Option.is_some r.A.broadcast_time && r.A.informed = Graph.n g,
          r.A.informed,
          Graph.n g,
          r.A.rings,
          0 )
    | Meet walkers ->
        let r =
          P.Async_engine.meet_exchange ~walkers rng g ~source:0
            ~agents:(Placement.Linear 1.0) ~max_time
        in
        let module M = P.Async_meet_exchange in
        ( Option.is_some r.M.broadcast_time && r.M.informed = r.M.agents,
          r.M.informed,
          r.M.agents,
          r.M.rings,
          r.M.agents )

  let job ?trace ~max_rounds env =
    outcome_of
      (List.map
         (fun (name, kernel, seeds) ->
           run_cell trace name (fun ~timed ->
               let rings = ref 0 and agents = ref 0 and failed = ref 0 in
               Array.iteri
                 (fun i rng ->
                   let g = graph_of env.gnps i in
                   let ok, informed, parties, r, k =
                     timed (fun () -> run_kernel ~max_rounds g kernel (Rng.copy rng))
                   in
                   rings := !rings + r;
                   agents := k;
                   if not ok then begin
                     report_failure name ~informed ~parties;
                     incr failed
                   end)
                 seeds;
               let counts = [ ("rings", !rings) ] in
               let counts =
                 if !agents > 0 then counts @ [ ("agents", !agents) ] else counts
               in
               (counts, Array.length seeds, !failed)))
         env.runs)
end

(* --------------------------------------------------------- paper-figs *)

module Figs = struct
  (* The Figure-1 separator families at about 500 vertices, with the
     sources the paper's lemmas use, plus a random d-regular graph with
     d close to 2 ln n (Theorem 1) that is resampled for every rep. *)
  type family = {
    fname : string;
    fixed : (Graph.t * int) option;  (** [None]: resampled per rep *)
    reps : int array;  (** per protocol, in [protocols] order *)
  }

  let rr_n = 500
  let rr_d = 12

  let protocols =
    [
      ("push", Protocol.push);
      ("push_pull", Protocol.push_pull);
      ("visit_exchange", Protocol.visit_exchange ());
      ("meet_exchange", Protocol.meet_exchange ());
    ]

  (* Rep counts per (family, protocol): the slow cells — double-star push
     and push-pull take Theta(n) rounds, the agents need Omega(n) rounds on
     the heavy trees — get few reps, so that no cell dominates the job. *)
  let families () =
    let ds = Gen_paper.double_star ~leaves_per_star:249 in
    let ht = Gen_paper.heavy_binary_tree ~levels:9 in
    let si = Gen_paper.siamese_heavy_tree ~levels:8 in
    let csc = Gen_paper.cycle_stars_cliques ~k:8 in
    [
      {
        fname = "double_star";
        fixed = Some (ds.Gen_paper.ds_graph, ds.Gen_paper.ds_leaf_a);
        reps = [| 12; 24; 80; 80 |];
      };
      {
        fname = "heavy_tree";
        fixed = Some (ht.Gen_paper.ht_graph, ht.Gen_paper.ht_first_leaf);
        reps = [| 80; 80; 16; 80 |];
      };
      {
        fname = "siamese_tree";
        fixed = Some (si.Gen_paper.si_graph, si.Gen_paper.si_leaf_left);
        reps = [| 80; 80; 16; 16 |];
      };
      {
        fname = "cycle_stars_cliques";
        fixed = Some (csc.Gen_paper.csc_graph, csc.Gen_paper.csc_a_clique_vertex);
        reps = [| 80; 80; 80; 40 |];
      };
      { fname = "random_regular"; fixed = None; reps = [| 80; 80; 80; 80 |] };
    ]

  type env = {
    families : family list;
    seeds : int array;  (** one Replicate master seed per cell *)
    build_s : float;
    check_s : float;
  }

  let setup ?trace seed =
    let master = Rng.of_int seed in
    let families, build_s =
      span trace "graph.build" (fun () -> time families)
    in
    let ok, check_s =
      span trace "graph.check" (fun () ->
          time (fun () ->
              List.for_all
                (fun f ->
                  match f.fixed with
                  | Some (g, _) -> Graph.min_degree g >= 1 && Algo.is_connected g
                  | None -> true)
                families))
    in
    if not ok then failwith "paper-figs: a family graph is disconnected";
    let cells = List.length families * List.length protocols in
    { families; seeds = Array.init cells (fun _ -> int_seed master); build_s; check_s }

  (* Extra, non-exact measurements of the job, besides its cells. *)
  type extra = {
    rep_wall_s : float;  (** sum of the per-rep walls Replicate reports *)
    emit_s : float;  (** time inside the JSONL sink *)
    records : int;
    bytes : int;  (** size of the JSONL file written *)
  }

  let job ?trace ~max_rounds ~out env =
    let rep_wall = ref 0.0 and emit = ref 0.0 and records = ref 0 in
    let cell_outcomes =
      Run_record.with_jsonl_file out (fun file_sink ->
          List.concat
            (List.mapi
               (fun fi f ->
                 List.mapi
                   (fun pi (pname, spec) ->
                     let seed = env.seeds.((fi * List.length protocols) + pi) in
                     let reps = f.reps.(pi) in
                     let graph rng =
                       match f.fixed with
                       | Some gs -> gs
                       | None ->
                           span trace "graph.rr_resample" (fun () ->
                               (Gen_random.random_regular_connected rng ~n:rr_n ~d:rr_d, 0))
                     in
                     let name = Printf.sprintf "sim.%s.%s" f.fname pname in
                     run_cell trace name (fun ~timed:_ ->
                         let rounds = ref 0 and contacts = ref 0 and failed = ref 0 in
                         let sink (r : Run_record.t) =
                           rep_wall := !rep_wall +. r.Run_record.wall_seconds;
                           rounds := !rounds + r.Run_record.rounds_run;
                           contacts := !contacts + r.Run_record.contacts;
                           let curve = r.Run_record.informed_curve in
                           (* alpha = 1: agents = vertices, so every
                              protocol ends with |V| informed parties *)
                           let informed = curve.(Array.length curve - 1) in
                           if r.Run_record.capped || informed <> r.Run_record.vertices
                           then begin
                             report_failure name ~informed ~parties:r.Run_record.vertices;
                             incr failed
                           end;
                           let (), s =
                             span trace "obs.emit" (fun () ->
                                 time (fun () -> file_sink r))
                           in
                           emit := !emit +. s;
                           incr records
                         in
                         let (_ : Replicate.measurement) =
                           Replicate.broadcast_times ~sink ~graph_name:f.fname ~seed
                             ~reps ~graph ~spec ~max_rounds ()
                         in
                         ( [ ("rounds", !rounds); ("contacts", !contacts); ("reps", reps) ],
                           reps,
                           !failed )))
                   protocols)
               env.families))
    in
    let bytes = (Unix.stat out).Unix.st_size in
    Sys.remove out;
    (* each record carries its rep's wall time and GC counters as decimal
       text, whose length varies from repeat to repeat; 256 words per record
       also covers a buffer that doubles once more *)
    ( { (outcome_of cell_outcomes) with slack_words = 256.0 *. float_of_int !records },
      { rep_wall_s = !rep_wall; emit_s = !emit; records = !records; bytes } )
end
