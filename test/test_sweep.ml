(* Tests for Rumor_sim.Sweep: how often each kind of graph is built, and
   that a sweep's table does not depend on the replication domains. *)

module Gen_basic = Rumor_graph.Gen_basic
module Gen_random = Rumor_graph.Gen_random
module Protocol = Rumor_sim.Protocol
module Sweep = Rumor_sim.Sweep
module Table = Rumor_sim.Table
module Experiments = Rumor_sim.Experiments

(* A sweep of protocol columns (push and push-pull unless [specs] says
   otherwise) over (label, graph) rows. *)
let tiny ?(specs = [ Protocol.push; Protocol.push_pull ]) ~reps rows =
  {
    Sweep.id = "T";
    title = "tiny";
    claim = "";
    header = "graph" :: List.map Protocol.name specs;
    seed = 5;
    reps;
    rows;
    label = fst;
    graph = snd;
    columns = List.map Fun.const specs;
    max_rounds = Fun.const 10_000;
    render = (fun (label, _) ms -> label :: Array.to_list (Array.map Sweep.time_cell ms));
    notes = (fun measured -> [ Printf.sprintf "%d rows" (List.length measured) ]);
  }

let mixed_rows =
  [
    ("star", Sweep.Fixed (fun () -> (Gen_basic.star ~leaves:20, 0)));
    ( "rr",
      Sweep.Sampled (fun rng -> (Gen_random.random_regular_connected rng ~n:32 ~d:4, 0)) );
  ]

let config jobs = { Sweep.default_config with jobs }

let test_fixed_built_once_per_row () =
  List.iter
    (fun (jobs, reps, specs) ->
      let builds = ref 0 in
      let row name leaves =
        ( name,
          Sweep.Fixed
            (fun () ->
              incr builds;
              (Gen_basic.star ~leaves, 0)) )
      in
      let (_ : Table.t) =
        Sweep.run (config jobs) (tiny ~specs ~reps [ row "a" 10; row "b" 20 ])
      in
      Alcotest.(check int)
        (Printf.sprintf "jobs %d, reps %d, %d columns: one build per row" jobs reps
           (List.length specs))
        2 !builds)
    [
      (1, 1, [ Protocol.push ]);
      (1, 4, [ Protocol.push; Protocol.push_pull ]);
      (2, 4, [ Protocol.push; Protocol.push_pull; Protocol.async_push ]);
      (2, 7, [ Protocol.push ]);
    ]

let test_sampled_built_per_rep () =
  let samples = ref 0 in
  let sample rng =
    incr samples;
    (Gen_random.random_regular_connected rng ~n:32 ~d:4, 0)
  in
  let reps = 3 in
  let (_ : Table.t) =
    Sweep.run (config 1)
      (tiny ~reps [ ("a", Sweep.Sampled sample); ("b", Sweep.Sampled sample) ])
  in
  Alcotest.(check int) "rows x columns x reps" (2 * 2 * reps) !samples

let test_jobs_same_table () =
  let run jobs = Sweep.run (config jobs) (tiny ~reps:6 mixed_rows) in
  let t1 = run 1 and t2 = run 2 in
  Alcotest.(check (list (list string))) "rows" t1.Table.rows t2.Table.rows;
  Alcotest.(check (list string)) "notes" t1.Table.notes t2.Table.notes;
  Alcotest.(check (list string)) "header" t1.Table.header t2.Table.header;
  Alcotest.(check string) "rendering" (Table.render t1) (Table.render t2)

let test_records_name_their_row () =
  let labels = ref [] in
  let metrics (r : Rumor_obs.Run_record.t) = labels := r.graph :: !labels in
  let (_ : Table.t) =
    Sweep.run { (config 1) with metrics = Some metrics } (tiny ~reps:2 mixed_rows)
  in
  Alcotest.(check (list string))
    "one record per rep, labelled <id>/<row>"
    [ "T/star"; "T/star"; "T/star"; "T/star"; "T/rr"; "T/rr"; "T/rr"; "T/rr" ]
    (List.rev !labels)

let test_e1_rows_have_distinct_labels () =
  let labels = ref [] in
  let metrics (r : Rumor_obs.Run_record.t) = labels := r.graph :: !labels in
  let (_ : (Experiments.t * Table.t list) list) =
    Experiments.run_all ~ids:[ "E1" ] ~metrics Experiments.Quick ~seed:1
  in
  Alcotest.(check (list string))
    "one label per star size"
    [ "E1/1025"; "E1/129"; "E1/257"; "E1/513" ]
    (List.sort_uniq String.compare !labels)

let suite =
  [
    Alcotest.test_case "Fixed builds once per row" `Quick test_fixed_built_once_per_row;
    Alcotest.test_case "Sampled builds once per rep" `Quick test_sampled_built_per_rep;
    Alcotest.test_case "same table at jobs 1 and 2" `Quick test_jobs_same_table;
    Alcotest.test_case "records name their row" `Quick test_records_name_their_row;
    Alcotest.test_case "E1 rows have distinct labels" `Slow test_e1_rows_have_distinct_labels;
  ]
