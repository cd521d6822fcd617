(* Tests for Rumor_sim.Experiments: registry integrity plus smoke runs of
   the cheap experiments. *)

module Experiments = Rumor_sim.Experiments
module Table = Rumor_sim.Table

let find id =
  match Experiments.select [ id ] Rumor_sim.Protocol.Dense with
  | [ e ] -> Some e
  | _ | (exception Invalid_argument _) -> None

let config =
  { Rumor_sim.Sweep.metrics = None; jobs = 1; walkers = Rumor_sim.Protocol.Dense; trace = None }

let test_ids_unique () =
  let ids = List.map (fun (e : Experiments.t) -> e.Experiments.id) Experiments.all in
  Alcotest.(check int) "no duplicate ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

let test_expected_ids_present () =
  List.iter
    (fun id ->
      match find id with
      | Some _ -> ()
      | None -> Alcotest.failf "experiment %s missing" id)
    [
      "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E9"; "E10"; "A1"; "A2";
      "A3"; "A4"; "A8"; "A9"; "A10"; "R1"; "R2"; "R6"; "R7"; "R9";
    ]

let test_find_case_insensitive () =
  (match find "e9" with
  | Some e -> Alcotest.(check string) "found" "E9" e.Experiments.id
  | None -> Alcotest.fail "lowercase lookup failed");
  Alcotest.(check bool) "unknown id" true (find "E99" = None)

let test_every_experiment_has_paper_ref () =
  List.iter
    (fun (e : Experiments.t) ->
      if String.length e.Experiments.paper_ref = 0 then
        Alcotest.failf "%s lacks a paper reference" e.Experiments.id)
    Experiments.all

let test_run_all_unknown_id_rejected () =
  Alcotest.(check int) "kept experiments" 21 (List.length Experiments.all);
  (* the retired related-work scenarios are unknown ids too *)
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " unknown") true (find id = None);
      match Experiments.select [ "E1"; id ] Rumor_sim.Protocol.Dense with
      | _ -> Alcotest.failf "unknown id %s accepted" id
      | exception Invalid_argument m ->
          let prefix = Printf.sprintf "unknown experiment %s (known: E1, " id in
          Alcotest.(check bool) (id ^ ": message " ^ m) true
            (String.starts_with ~prefix m))
    [ "bogus"; "R3"; "R4"; "R5"; "R8"; "A6"; "A7" ]

(* Smoke runs: the cheap experiments must produce non-empty tables whose
   key invariant cells hold.  E9's invariants are deterministic (Lemmas 13
   and 14), so we assert exact zeros. *)

let run_one id =
  match find id with
  | None -> Alcotest.failf "experiment %s missing" id
  | Some e -> e.Experiments.run config Experiments.Quick ~seed:3

let test_e9_invariants_zero () =
  match run_one "E9" with
  | [ coupling_table; theorem19_table ] ->
      Alcotest.(check bool) "has rows" true (List.length coupling_table.Table.rows > 0);
      List.iter
        (fun row ->
          match row with
          | _ :: _ :: violations :: mismatches :: _ ->
              Alcotest.(check string) "lemma 13 violations" "0" violations;
              Alcotest.(check string) "lemma 14 mismatches" "0" mismatches
          | _ -> Alcotest.fail "unexpected row shape")
        coupling_table.Table.rows;
      List.iter
        (fun row ->
          match row with
          | _ :: _ :: _ratio :: t_clamp :: r_clamp :: _ ->
              Alcotest.(check string) "t-clamp idle" "0" t_clamp;
              Alcotest.(check string) "r-clamp idle" "0" r_clamp
          | _ -> Alcotest.fail "unexpected E9b row shape")
        theorem19_table.Table.rows
  | _ -> Alcotest.fail "E9 should produce two tables"

let test_a2_shows_stall () =
  match run_one "A2" with
  | [ table ] -> (
      match table.Table.rows with
      | [ lazy_row; non_lazy_row ] ->
          let completed row = List.nth row 2 in
          Alcotest.(check string) "lazy completes" "5/5" (completed lazy_row);
          Alcotest.(check string) "non-lazy stalls" "0/5" (completed non_lazy_row)
      | _ -> Alcotest.fail "A2 should have two rows")
  | _ -> Alcotest.fail "A2 should produce one table"

let test_a4_fairness_direction () =
  match run_one "A4" with
  | [ table ] -> (
      match table.Table.rows with
      | [ pp_row; vx_row ] ->
          let bridge_over_mean row = float_of_string (List.nth row 5) in
          Alcotest.(check bool) "push-pull starves the bridge" true
            (bridge_over_mean pp_row < 0.2);
          Alcotest.(check bool) "visit-exchange uses the bridge" true
            (bridge_over_mean vx_row > 0.3)
      | _ -> Alcotest.fail "A4 should have two rows")
  | _ -> Alcotest.fail "A4 should produce one table"

let test_tables_render_and_csv () =
  (* rendering must not raise for any cheap experiment *)
  List.iter
    (fun id ->
      List.iter
        (fun t ->
          let text = Table.render t in
          Alcotest.(check bool) "render non-empty" true (String.length text > 0);
          let csv = Table.to_csv t in
          Alcotest.(check bool) "csv non-empty" true (String.length csv > 0))
        (run_one id))
    [ "A2"; "A4" ]

(* A10 runs four graph families under both walker representations; its
   records are labelled A10/<family>/<walkers>, one group per pair *)
let test_a10_labels () =
  let labels = ref [] in
  let metrics (r : Rumor_obs.Run_record.t) = labels := r.graph :: !labels in
  let (_ : Table.t list) =
    Experiments.run_one { config with metrics = Some metrics } Experiments.Quick ~seed:1
      (Option.get (find "A10"))
  in
  Alcotest.(check (list string))
    "one label per family and representation"
    [
      "A10/G(n,p)/dense"; "A10/G(n,p)/sparse"; "A10/complete/dense"; "A10/complete/sparse";
      "A10/random regular/dense"; "A10/random regular/sparse"; "A10/torus 16x16/dense";
      "A10/torus 16x16/sparse";
    ]
    (List.sort_uniq String.compare !labels)

(* E7 measures visit- and meet-exchange once per row; every derived column
   (ln n, each protocol's min/ln n, the gap and gap/ln n) is recomputed here
   from the records of its own row and protocol *)
let test_e7_columns () =
  let records = ref [] in
  let metrics (r : Rumor_obs.Run_record.t) = records := r :: !records in
  let tables =
    Experiments.run_one { config with metrics = Some metrics } Experiments.Quick ~seed:1
      (Option.get (find "E7"))
  in
  let times label protocol =
    List.filter_map
      (fun (r : Rumor_obs.Run_record.t) ->
        if String.equal r.graph ("E7/" ^ label) && String.equal r.protocol protocol then
          Option.map float_of_int r.broadcast_time
        else None)
      !records
    |> Array.of_list
  in
  match tables with
  | [ t ] ->
      Alcotest.(check int) "quick rows" 4 (List.length t.Table.rows);
      List.iter
        (fun row ->
          match row with
          | [ label; ln_cell; _; vmin; _; mmin; gap; gap_ln ] ->
              let n = int_of_string (List.hd (String.split_on_char ' ' label)) in
              let ln = log (float_of_int n) in
              let vx = times label "visit-exchange" and mx = times label "meet-exchange" in
              let s_vx = Rumor_prob.Stats.summarize vx and s_mx = Rumor_prob.Stats.summarize mx in
              let g = s_mx.mean -. s_vx.mean in
              Alcotest.(check string) (label ^ " ln n") (Printf.sprintf "%.1f" ln) ln_cell;
              Alcotest.(check string) (label ^ " visitx min/ln n")
                (Printf.sprintf "%.2f" (s_vx.min /. ln)) vmin;
              Alcotest.(check string) (label ^ " meetx min/ln n")
                (Printf.sprintf "%.2f" (s_mx.min /. ln)) mmin;
              Alcotest.(check string) (label ^ " gap") (Printf.sprintf "%.1f" g) gap;
              Alcotest.(check string) (label ^ " gap/ln n") (Printf.sprintf "%.2f" (g /. ln)) gap_ln
          | _ -> Alcotest.fail "E7 row width")
        t.Table.rows
  | _ -> Alcotest.fail "E7 renders one table"

let suite =
  [
    Alcotest.test_case "ids unique" `Quick test_ids_unique;
    Alcotest.test_case "expected ids present" `Quick test_expected_ids_present;
    Alcotest.test_case "find case-insensitive" `Quick test_find_case_insensitive;
    Alcotest.test_case "paper references present" `Quick test_every_experiment_has_paper_ref;
    Alcotest.test_case "unknown id rejected" `Quick test_run_all_unknown_id_rejected;
    Alcotest.test_case "E9 invariants hold" `Slow test_e9_invariants_zero;
    Alcotest.test_case "A2 shows the bipartite stall" `Slow test_a2_shows_stall;
    Alcotest.test_case "A4 fairness direction" `Slow test_a4_fairness_direction;
    Alcotest.test_case "tables render and export" `Slow test_tables_render_and_csv;
    Alcotest.test_case "A10 records name family and walkers" `Slow test_a10_labels;
    Alcotest.test_case "E7 derived columns" `Quick test_e7_columns;
  ]
