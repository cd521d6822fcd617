(* Tests for the analysis half of the observability stack: the Json
   parser, Run_record round-trips, read_jsonl error reporting, Aggregate
   group math and Baseline verdicts — plus an end-to-end exit-code check
   of the rumor_report CLI. *)

module Json = Rumor_obs.Json
module Run_record = Rumor_obs.Run_record
module Aggregate = Rumor_obs.Aggregate
module Baseline = Rumor_obs.Baseline
module Stats = Rumor_prob.Stats

(* --- Json ------------------------------------------------------------- *)

let test_json_values () =
  let j = Json.parse {| {"a": 1, "b": [1, 2.5, "x"], "c": null, "d": true} |} in
  Alcotest.(check (option int)) "int member" (Some 1)
    (Option.bind (Json.member "a" j) Json.to_int);
  (match Option.bind (Json.member "b" j) Json.to_list with
  | Some [ Json.Int 1; Json.Float f; Json.String "x" ] ->
      Alcotest.(check (float 1e-12)) "float elt" 2.5 f
  | _ -> Alcotest.fail "list shape");
  Alcotest.(check (option bool)) "bool member" (Some true)
    (Option.bind (Json.member "d" j) Json.to_bool);
  Alcotest.(check bool) "null member" true (Json.member "c" j = Some Json.Null);
  Alcotest.(check bool) "negative and exponent numbers" true
    (Json.parse "[-3, 1e3, -2.5e-1]"
    = Json.List [ Json.Int (-3); Json.Float 1000.0; Json.Float (-0.25) ])

let test_json_string_escapes () =
  Alcotest.(check (option string))
    "standard escapes" (Some "a\"b\\c\nd\te")
    (Json.to_string (Json.parse {|"a\"b\\c\nd\te"|}));
  Alcotest.(check (option string))
    "\\u BMP escape" (Some "A")
    (Json.to_string (Json.parse {|"\u0041"|}));
  Alcotest.(check (option string))
    "surrogate pair to UTF-8" (Some "\xf0\x9f\x98\x80")
    (Json.to_string (Json.parse {|"\ud83d\ude00"|}));
  Alcotest.(check (option string))
    "raw UTF-8 passes through" (Some "étoile")
    (Json.to_string (Json.parse "\"étoile\""))

let test_json_errors () =
  let pos_of s =
    match Json.parse s with
    | _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
    | exception Json.Error { pos; _ } -> pos
  in
  Alcotest.(check int) "bare comma in array" 3 (pos_of "[1,]");
  Alcotest.(check int) "trailing garbage position" 3 (pos_of "{} x");
  Alcotest.(check int) "unterminated string" 4 (pos_of "\"abc");
  (match Json.parse_result "nope" with
  | Error msg ->
      Alcotest.(check bool) "message carries offset" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "should not parse")

let test_json_emit_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "q\"uote\n");
        ("xs", Json.List [ Json.Int 1; Json.Float 0.125; Json.Null ]);
        ("b", Json.Bool false);
      ]
  in
  Alcotest.(check bool) "emit/parse fixpoint" true
    (Json.parse (Json.to_string_json v) = v)

(* --- Run_record round-trips ------------------------------------------- *)

let sample_record =
  {
    Run_record.seed = 218;
    rep = 3;
    graph = "star:8";
    protocol = "push";
    vertices = 8;
    broadcast_time = Some 5;
    rounds_run = 5;
    capped = false;
    contacts = 40;
    informed_curve = [| 1; 2; 4; 8 |];
    wall_seconds = 0.125;
    gc = { Run_record.minor_words = 10.0; major_words = 2.0; promoted_words = 1.0 };
  }

let check_roundtrip name r =
  match Run_record.of_json (Run_record.to_json r) with
  | Ok r' -> Alcotest.(check bool) name true (r = r')
  | Error msg -> Alcotest.fail (name ^ ": " ^ msg)

let test_record_roundtrip () =
  check_roundtrip "plain record" sample_record;
  check_roundtrip "capped record (null broadcast_time)"
    { sample_record with Run_record.broadcast_time = None; capped = true };
  check_roundtrip "non-ASCII graph name"
    { sample_record with Run_record.graph = "étoile—☆:8" };
  check_roundtrip "escapes in labels"
    { sample_record with Run_record.graph = "g\"raph\\:8\n" };
  check_roundtrip "empty curve"
    { sample_record with Run_record.informed_curve = [||] };
  check_roundtrip "awkward floats"
    {
      sample_record with
      Run_record.wall_seconds = 0.1 +. 0.2;
      gc =
        {
          Run_record.minor_words = 1.2345678901234567e8;
          major_words = 0.0;
          promoted_words = 3.0;
        };
    }

let test_record_of_json_errors () =
  (match Run_record.of_json "{\"seed\":1}" with
  | Error msg ->
      Alcotest.(check bool) "names the missing field" true
        (let has_sub sub s =
           let sl = String.length sub and l = String.length s in
           let rec scan i = i + sl <= l && (String.sub s i sl = sub || scan (i + 1)) in
           scan 0
         in
         has_sub "rep" msg)
  | Ok _ -> Alcotest.fail "incomplete record parsed");
  match Run_record.of_json "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage parsed"

let with_temp_file f =
  let path = Filename.temp_file "rumor_report_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_read_jsonl_roundtrip () =
  with_temp_file (fun path ->
      let records =
        [
          sample_record;
          { sample_record with Run_record.rep = 4; graph = "étoile:8" };
          { sample_record with Run_record.rep = 5; broadcast_time = None; capped = true };
        ]
      in
      Run_record.with_jsonl_file path (fun sink -> List.iter sink records);
      Alcotest.(check bool) "records survive the file" true
        (Run_record.read_jsonl path = records))

let test_read_jsonl_error_line () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc (Run_record.to_json sample_record ^ "\n");
      output_string oc "\n";
      output_string oc (Run_record.to_json sample_record ^ "\n");
      output_string oc "{\"seed\": 1, TRUNCATED";
      close_out oc;
      match Run_record.read_jsonl path with
      | _ -> Alcotest.fail "garbage line accepted"
      | exception Run_record.Jsonl_error { line; path = p; _ } ->
          Alcotest.(check int) "1-based line of the bad record" 4 line;
          Alcotest.(check string) "path reported" path p)

let test_read_jsonl_trailing_garbage_on_line () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc (Run_record.to_json sample_record ^ "{\n");
      close_out oc;
      match Run_record.read_jsonl path with
      | _ -> Alcotest.fail "trailing garbage accepted"
      | exception Run_record.Jsonl_error { line; _ } ->
          Alcotest.(check int) "error on line 1" 1 line)

(* --- Aggregate -------------------------------------------------------- *)

let record ?(graph = "g") ?(protocol = "p") ?(rep = 0) ?broadcast_time
    ?(rounds_run = 0) ?(contacts = 0) ?(curve = [||]) ?(wall = 0.0)
    ?(minor = 0.0) ?(major = 0.0) ?(promoted = 0.0) () =
  {
    Run_record.seed = 1;
    rep;
    graph;
    protocol;
    vertices = 16;
    broadcast_time;
    rounds_run =
      (match broadcast_time with Some t -> max t rounds_run | None -> rounds_run);
    capped = broadcast_time = None;
    contacts;
    informed_curve = curve;
    wall_seconds = wall;
    gc = { Run_record.minor_words = minor; major_words = major; promoted_words = promoted };
  }

let test_aggregate_matches_stats () =
  let times = [ 10; 20; 30; 40 ] in
  let records =
    List.mapi
      (fun i t -> record ~rep:i ~broadcast_time:t ~contacts:(10 * (i + 1)) ())
      times
    (* a capped run contributes its rounds_run, as Replicate's `Keep does *)
    @ [ record ~rep:4 ~rounds_run:50 () ]
  in
  match Aggregate.of_records records with
  | [ g ] ->
      let expected = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
      Alcotest.(check int) "runs" 5 g.Aggregate.runs;
      Alcotest.(check int) "capped" 1 g.Aggregate.capped;
      Alcotest.(check bool) "broadcast summary = Stats.summarize" true
        (g.Aggregate.broadcast.Aggregate.summary = Stats.summarize expected);
      let sorted = Array.copy expected in
      Array.sort Float.compare sorted;
      Alcotest.(check (float 1e-12)) "p90 = Stats.quantile 0.9"
        (Stats.quantile sorted 0.9) g.Aggregate.broadcast.Aggregate.p90;
      Alcotest.(check (float 1e-12)) "p99 = Stats.quantile 0.99"
        (Stats.quantile sorted 0.99) g.Aggregate.broadcast.Aggregate.p99;
      (* contacts: 10+20+30+40 over the four finished runs, 0 for the capped one *)
      Alcotest.(check (float 1e-12)) "contacts mean" 20.0
        g.Aggregate.contacts.Aggregate.summary.Stats.mean
  | groups ->
      Alcotest.fail (Printf.sprintf "expected 1 group, got %d" (List.length groups))

let test_aggregate_groups_and_curves () =
  let records =
    [
      record ~graph:"b" ~protocol:"push" ~broadcast_time:3 ~curve:[| 1; 2; 4 |] ();
      record ~graph:"b" ~protocol:"push" ~rep:1 ~broadcast_time:2 ~curve:[| 1; 3 |] ();
      record ~graph:"a" ~protocol:"pull" ~broadcast_time:7 ();
    ]
  in
  let agg = Aggregate.of_records records in
  Alcotest.(check (list string)) "sorted by (graph, protocol)" [ "a/pull"; "b/push" ]
    (List.map (fun g -> g.Aggregate.graph ^ "/" ^ g.Aggregate.protocol) agg);
  (match Aggregate.find agg ~graph:"b" ~protocol:"push" with
  | Some g ->
      (* the shorter curve pads with its final value *)
      Alcotest.(check (array (float 1e-12))) "mean curve with padding"
        [| 1.0; 2.5; 3.5 |] g.Aggregate.mean_curve
  | None -> Alcotest.fail "find missed the group");
  match Aggregate.find agg ~graph:"a" ~protocol:"pull" with
  | Some g ->
      Alcotest.(check (array (float 1e-12))) "no curves -> empty mean curve"
        [||] g.Aggregate.mean_curve
  | None -> Alcotest.fail "find missed the second group"

let test_alloc_words () =
  match Aggregate.of_records [ record ~minor:10.0 ~major:2.0 ~promoted:1.0 () ] with
  | [ g ] ->
      Alcotest.(check (float 1e-9)) "minor + major - promoted" 11.0
        g.Aggregate.alloc_words.Aggregate.summary.Rumor_prob.Stats.mean
  | _ -> Alcotest.fail "expected one group"

(* --- Baseline --------------------------------------------------------- *)

let agg_with_wall wall =
  Aggregate.of_records
    [ record ~broadcast_time:10 ~contacts:100 ~wall ~minor:1000.0 () ]

let test_baseline_tolerance_boundary () =
  (* baseline mean 1.0, tolerance 25%: the boundaries 1.25 and 0.75 are
     exact binary floats, so equality at the boundary is well-defined *)
  let tol = Baseline.uniform 0.25 in
  let base = agg_with_wall 1.0 in
  let status wall =
    let report = Baseline.check ~tol ~baseline:base ~current:(agg_with_wall wall) () in
    let c =
      List.find (fun (c : Baseline.check) -> c.Baseline.metric = "wall_seconds")
        report.Baseline.checks
    in
    c.Baseline.status
  in
  Alcotest.(check bool) "at upper boundary passes" true (status 1.25 = Baseline.Pass);
  Alcotest.(check bool) "above upper boundary regresses" true
    (status 1.2500001 = Baseline.Regressed);
  Alcotest.(check bool) "at lower boundary passes" true (status 0.75 = Baseline.Pass);
  Alcotest.(check bool) "below lower boundary improves" true
    (status 0.7499 = Baseline.Improved)

let test_baseline_2x_wall_regression () =
  let mk wall =
    Aggregate.of_records
      (List.init 4 (fun i ->
           record ~rep:i ~broadcast_time:10 ~contacts:100 ~wall ~minor:1000.0 ()))
  in
  let report =
    Baseline.check ~baseline:(mk 0.010) ~current:(mk 0.020) ()
  in
  let regressed = Baseline.regressions report in
  Alcotest.(check (list string)) "exactly the wall metric regresses"
    [ "wall_seconds" ]
    (List.map (fun (c : Baseline.check) -> c.Baseline.metric) regressed);
  Alcotest.(check bool) "2x wall-clock fails the gate" false
    (Baseline.passed report);
  (match regressed with
  | [ c ] -> Alcotest.(check (float 1e-9)) "ratio is 2x" 2.0 c.Baseline.ratio
  | _ -> Alcotest.fail "expected one regression")

let test_baseline_missing_and_added () =
  let base = Aggregate.of_records [ record ~graph:"a" ~broadcast_time:1 () ] in
  let current = Aggregate.of_records [ record ~graph:"b" ~broadcast_time:1 () ] in
  let report = Baseline.check ~baseline:base ~current () in
  Alcotest.(check bool) "missing group fails the gate" false
    (Baseline.passed report);
  Alcotest.(check (list (pair string string))) "missing" [ ("a", "p") ]
    report.Baseline.missing;
  Alcotest.(check (list (pair string string))) "added" [ ("b", "p") ]
    report.Baseline.added

let test_baseline_snapshot_roundtrip () =
  let agg =
    Aggregate.of_records
      [
        record ~graph:"étoile:8" ~broadcast_time:10 ~contacts:11 ~wall:0.25
          ~minor:100.0 ~curve:[| 1; 8 |] ();
        record ~graph:"étoile:8" ~rep:1 ~broadcast_time:20 ~contacts:13
          ~wall:0.5 ~minor:200.0 ();
        record ~graph:"k" ~protocol:"pull" ~rounds_run:9 ();
      ]
  in
  with_temp_file (fun path ->
      Baseline.save path agg;
      match Baseline.of_json (In_channel.with_open_bin path In_channel.input_all) with
      | Error msg -> Alcotest.fail msg
      | Ok agg' ->
          Alcotest.(check bool) "snapshot preserves everything but curves" true
            (agg' = List.map (fun g -> { g with Aggregate.mean_curve = [||] }) agg))

(* --- the CLI gate, end to end ----------------------------------------- *)

let report_exe = Filename.concat (Filename.concat ".." "bin") "rumor_report.exe"

let test_cli_check_exit_codes () =
  if not (Sys.file_exists report_exe) then
    (* dune declares the exe as a test dep; guard anyway for odd setups *)
    Alcotest.skip ()
  else
    with_temp_file (fun jsonl ->
        with_temp_file (fun baseline ->
            let write path wall =
              Run_record.with_jsonl_file path (fun sink ->
                  for i = 0 to 3 do
                    sink
                      (record ~rep:i ~broadcast_time:10 ~contacts:100 ~wall
                         ~minor:1000.0 ())
                  done)
            in
            write jsonl 0.010;
            let run args =
              Sys.command
                (Filename.quote_command report_exe args ~stdout:"/dev/null"
                   ~stderr:"/dev/null")
            in
            Alcotest.(check int) "baseline subcommand succeeds" 0
              (run [ "baseline"; jsonl; "-o"; baseline ]);
            Alcotest.(check int) "identical run passes" 0
              (run [ "check"; jsonl; "--baseline"; baseline ]);
            (* inject a 2x wall-clock regression *)
            write jsonl 0.020;
            Alcotest.(check int) "2x wall regression exits 1" 1
              (run [ "check"; jsonl; "--baseline"; baseline ]);
            Alcotest.(check int)
              "a huge uniform tolerance lets the same run pass" 0
              (run [ "check"; jsonl; "--baseline"; baseline; "--tolerance"; "150" ]);
            (* a tolerance that is not finite would disable the gate: it is
               a usage error, exit 2, for check and compare alike *)
            List.iter
              (fun tol ->
                Alcotest.(check int)
                  (Printf.sprintf "check --tolerance %s exits 2" tol)
                  2
                  (run [ "check"; jsonl; "--baseline"; baseline; "--tolerance"; tol ]);
                Alcotest.(check int)
                  (Printf.sprintf "compare --tolerance %s exits 2" tol)
                  2
                  (run [ "compare"; baseline; jsonl; "--tolerance"; tol ]))
              [ "nan"; "inf" ];
            (* a file of an unknown schema, such as rumor-bench/1, is
               malformed input: exit 2 *)
            Out_channel.with_open_bin baseline (fun oc ->
                output_string oc
                  {|{"schema":"rumor-bench/1","seed":1,"entries":[]}|});
            Alcotest.(check int) "compare on a rumor-bench/1 file exits 2" 2
              (run [ "compare"; baseline; baseline ])))

(* a tolerance that is not finite or is negative is refused with one line
   that names the flag; zero is a valid (strict) tolerance *)
let test_cli_tolerance_validation () =
  if not (Sys.file_exists report_exe) then Alcotest.skip ()
  else
    with_temp_file (fun jsonl ->
        with_temp_file (fun baseline ->
            with_temp_file (fun err ->
                Run_record.with_jsonl_file jsonl (fun sink ->
                    for i = 0 to 3 do
                      sink (record ~rep:i ~broadcast_time:10 ~contacts:100
                              ~wall:0.010 ~minor:1000.0 ())
                    done);
                let run args =
                  Sys.command
                    (Filename.quote_command report_exe args ~stdout:"/dev/null"
                       ~stderr:err)
                in
                Alcotest.(check int) "baseline subcommand succeeds" 0
                  (run [ "baseline"; jsonl; "-o"; baseline ]);
                List.iter
                  (fun tol ->
                    List.iter
                      (fun (cmd, args) ->
                        let label = Printf.sprintf "%s --tolerance %s" cmd tol in
                        Alcotest.(check int) (label ^ " exits 2") 2
                          (run ((cmd :: args) @ [ "--tolerance=" ^ tol ]));
                        let lines =
                          In_channel.with_open_bin err In_channel.input_all
                          |> String.split_on_char '\n'
                          |> List.filter (fun l -> l <> "")
                        in
                        match lines with
                        | [ line ] ->
                            Alcotest.(check string) (label ^ " message")
                              "rumor_report: --tolerance must be finite and \
                               non-negative"
                              line
                        | _ ->
                            Alcotest.failf "%s: want one stderr line, got %d"
                              label (List.length lines))
                      [ ("check", [ jsonl; "--baseline"; baseline ]);
                        ("compare", [ baseline; jsonl ]) ])
                  [ "-inf"; "-1"; "nan"; "inf" ];
                Alcotest.(check int) "check --tolerance 0 on the same run" 0
                  (run [ "check"; jsonl; "--baseline"; baseline; "--tolerance"; "0" ]))))

(* compare and summary read every input kind [load_aggregate] accepts: a
   JSONL file, a single-record file and a baseline snapshot; a file with
   no records is malformed input *)
let test_cli_compare_and_summary_inputs () =
  if not (Sys.file_exists report_exe) then Alcotest.skip ()
  else
    with_temp_file (fun jsonl ->
        with_temp_file (fun single ->
            with_temp_file (fun baseline ->
                with_temp_file (fun empty ->
                    Run_record.with_jsonl_file jsonl (fun sink ->
                        for i = 0 to 3 do
                          sink (record ~rep:i ~broadcast_time:10 ~contacts:100
                                  ~wall:0.010 ~minor:1000.0 ())
                        done);
                    (* one record, twice as slow: compare reports but does
                       not fail *)
                    Run_record.with_jsonl_file single (fun sink ->
                        sink (record ~broadcast_time:10 ~contacts:100
                                ~wall:0.020 ~minor:1000.0 ()));
                    let run args =
                      Sys.command
                        (Filename.quote_command report_exe args
                           ~stdout:"/dev/null" ~stderr:"/dev/null")
                    in
                    Alcotest.(check int) "baseline subcommand succeeds" 0
                      (run [ "baseline"; jsonl; "-o"; baseline ]);
                    Alcotest.(check int) "compare JSONL with itself" 0
                      (run [ "compare"; jsonl; jsonl ]);
                    Alcotest.(check int)
                      "compare a snapshot with a slower single record" 0
                      (run [ "compare"; baseline; single ]);
                    Alcotest.(check int) "summary of a JSONL file" 0
                      (run [ "summary"; jsonl ]);
                    Alcotest.(check int) "summary of a single record" 0
                      (run [ "summary"; single ]);
                    Alcotest.(check int) "compare with an empty file exits 2" 2
                      (run [ "compare"; jsonl; empty ]);
                    Alcotest.(check int) "summary of a missing file exits 2" 2
                      (run [ "summary"; empty ^ ".missing" ])))))

(* broadcast and contacts get 10%, wall-clock 50%, allocation 15% *)
let test_default_tolerances () =
  let t = Baseline.default_tolerances in
  Alcotest.(check (list (float 0.0))) "broadcast, contacts, wall, alloc"
    [ 0.10; 0.10; 0.50; 0.15 ]
    [ t.Baseline.broadcast; t.contacts; t.wall; t.alloc ];
  let agg ~bt ~contacts ~wall ~minor =
    Aggregate.of_records [ record ~broadcast_time:bt ~contacts ~wall ~minor () ]
  in
  let baseline = agg ~bt:10 ~contacts:100 ~wall:1.0 ~minor:1000.0 in
  let regressed current =
    List.map
      (fun (c : Baseline.check) -> c.Baseline.metric)
      (Baseline.regressions (Baseline.check ~baseline ~current ()))
  in
  Alcotest.(check (list string)) "each metric inside its own tolerance" []
    (regressed (agg ~bt:11 ~contacts:110 ~wall:1.5 ~minor:1150.0));
  Alcotest.(check (list string)) "each metric past its own tolerance"
    [ "broadcast"; "contacts"; "wall_seconds"; "alloc_words" ]
    (regressed (agg ~bt:12 ~contacts:111 ~wall:1.6 ~minor:1160.0))

(* JSON has no non-finite numbers: they are written as null and read back
   as nan; finite floats round-trip exactly *)
let test_json_non_finite () =
  let emit x =
    let b = Buffer.create 16 in
    Json.buf_add_float b x;
    Buffer.contents b
  in
  List.iter
    (fun x -> Alcotest.(check string) (Printf.sprintf "%g" x) "null" (emit x))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check bool) "null reads as nan" true
    (match Json.to_float (Json.parse "null") with Some x -> Float.is_nan x | None -> false);
  List.iter
    (fun x ->
      match Option.bind (Json.parse_result (emit x) |> Result.to_option) Json.to_float with
      | Some y -> Alcotest.(check (float 0.0)) (emit x) x y
      | None -> Alcotest.failf "%s does not read back" (emit x))
    [ 0.1; -2.5e-300; 1e300; 3.0; Float.pi ]

(* the writer's escapes: the mandatory ones, \u00XX for the other control
   bytes, UTF-8 untouched; and the reader takes every one back *)
let test_json_string_literal () =
  let emit s =
    let b = Buffer.create 16 in
    Json.buf_add_string_literal b s;
    Buffer.contents b
  in
  let s = "q\"b\\n\nr\rt\t\x01\x1f é" in
  Alcotest.(check string) "escaped text" {|"q\"b\\n\nr\rt\t\u0001\u001f é"|} (emit s);
  Alcotest.(check (option string)) "reads back" (Some s) (Json.to_string (Json.parse (emit s)))

let suite =
  [
    Alcotest.test_case "json values" `Quick test_json_values;
    Alcotest.test_case "json string escapes" `Quick test_json_string_escapes;
    Alcotest.test_case "json error positions" `Quick test_json_errors;
    Alcotest.test_case "json emit/parse fixpoint" `Quick test_json_emit_roundtrip;
    Alcotest.test_case "record json roundtrip" `Quick test_record_roundtrip;
    Alcotest.test_case "record of_json errors" `Quick test_record_of_json_errors;
    Alcotest.test_case "read_jsonl roundtrip" `Quick test_read_jsonl_roundtrip;
    Alcotest.test_case "read_jsonl error line numbers" `Quick
      test_read_jsonl_error_line;
    Alcotest.test_case "read_jsonl trailing garbage" `Quick
      test_read_jsonl_trailing_garbage_on_line;
    Alcotest.test_case "aggregate matches Stats.summarize" `Quick
      test_aggregate_matches_stats;
    Alcotest.test_case "aggregate grouping and mean curves" `Quick
      test_aggregate_groups_and_curves;
    Alcotest.test_case "alloc words" `Quick test_alloc_words;
    Alcotest.test_case "baseline tolerance boundary" `Quick
      test_baseline_tolerance_boundary;
    Alcotest.test_case "baseline 2x wall regression" `Quick
      test_baseline_2x_wall_regression;
    Alcotest.test_case "baseline missing/added groups" `Quick
      test_baseline_missing_and_added;
    Alcotest.test_case "baseline snapshot roundtrip" `Quick
      test_baseline_snapshot_roundtrip;
    Alcotest.test_case "rumor_report check exit codes" `Quick
      test_cli_check_exit_codes;
    Alcotest.test_case "rumor_report tolerance must be finite and >= 0" `Quick
      test_cli_tolerance_validation;
    Alcotest.test_case "rumor_report compare/summary inputs" `Quick
      test_cli_compare_and_summary_inputs;
    Alcotest.test_case "baseline default tolerances" `Quick test_default_tolerances;
    Alcotest.test_case "json non-finite floats" `Quick test_json_non_finite;
    Alcotest.test_case "json string literal escapes" `Quick test_json_string_literal;
  ]
