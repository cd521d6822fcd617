(* End-to-end tests for tools/lint/rumor_lint.exe: every rule's offender and
   suppressed fixture, the finding format, the 0/1/2 exit-code contract, and
   a seeded offense in a scratch copy of lib/prob/stats.ml.

   The corpus layout is documented in lint_fixtures/README.md. All runs
   shell out to the real executable, mirroring test_report.ml's CLI gate. *)

let lint_exe =
  Filename.concat
    (Filename.concat (Filename.concat ".." "tools") "lint")
    "rumor_lint.exe"

let fixture_root = "lint_fixtures"
let fixture name = Filename.concat (Filename.concat fixture_root "lib") name
let rule_ids = [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "R8" ]

let has_sub sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.equal (String.sub s i m) sub || at (i + 1)) in
  m = 0 || at 0

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Run the linter; return its exit code and stdout lines. *)
let run_lint args =
  let out = Filename.temp_file "rumor_lint_out" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command lint_exe args ~stdout:out ~stderr:"/dev/null")
      in
      (code, read_lines out))

let with_temp_ml content f =
  let path = Filename.temp_file "rumor_lint_case" ".ml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc content);
      f path)

let guard_exe f = if Sys.file_exists lint_exe then f () else Alcotest.skip ()

(* --- the corpus, end to end ------------------------------------------- *)

let test_corpus_one_finding_per_rule () =
  guard_exe @@ fun () ->
  let code, lines = run_lint [ "--root"; fixture_root; fixture_root ] in
  Alcotest.(check int) "corpus exits 1" 1 code;
  Alcotest.(check int) "exactly one finding per rule" (List.length rule_ids)
    (List.length lines);
  List.iter
    (fun id ->
      let tag = Printf.sprintf "[%s " id in
      let hits =
        List.filter
          (fun line ->
            let bad = fixture (String.lowercase_ascii id ^ "_bad.ml") in
            has_sub tag line && has_sub bad line)
          lines
      in
      Alcotest.(check int)
        (Printf.sprintf "%s finding points at its offender" id)
        1 (List.length hits))
    rule_ids

let test_offenders_exit_1 () =
  guard_exe @@ fun () ->
  List.iter
    (fun id ->
      let bad = fixture (String.lowercase_ascii id ^ "_bad.ml") in
      let code, lines = run_lint [ "--root"; fixture_root; bad ] in
      Alcotest.(check int) (bad ^ " exits 1") 1 code;
      Alcotest.(check int) (bad ^ " has exactly one finding") 1
        (List.length lines);
      Alcotest.(check bool)
        (bad ^ " finding is for exactly its rule")
        true
        (has_sub (Printf.sprintf "[%s " id) (List.hd lines)))
    rule_ids

let test_suppressed_exit_0 () =
  guard_exe @@ fun () ->
  List.iter
    (fun id ->
      let ok = fixture (String.lowercase_ascii id ^ "_ok.ml") in
      let code, lines = run_lint [ "--root"; fixture_root; ok ] in
      Alcotest.(check int) (ok ^ " exits 0") 0 code;
      Alcotest.(check int) (ok ^ " has no findings") 0 (List.length lines))
    rule_ids

let test_finding_format () =
  guard_exe @@ fun () ->
  let code, lines =
    run_lint [ "--root"; fixture_root; fixture "r1_bad.ml" ]
  in
  Alcotest.(check int) "exits 1" 1 code;
  match lines with
  | [ line ] -> (
      (* file:line:col: [R1 poly-compare] message *)
      match String.split_on_char ':' line with
      | file :: ln :: col :: _rest ->
          Alcotest.(check string) "file" (fixture "r1_bad.ml") file;
          Alcotest.(check int) "line" 4 (int_of_string ln);
          Alcotest.(check int) "col" 13 (int_of_string col)
      | _ -> Alcotest.fail ("unparseable finding: " ^ line))
  | _ -> Alcotest.fail "expected exactly one finding"

(* --- exit codes ------------------------------------------------------- *)

let test_clean_file_exits_0 () =
  guard_exe @@ fun () ->
  with_temp_ml "let double x = 2 * x\n" @@ fun path ->
  let code, lines = run_lint [ path ] in
  Alcotest.(check int) "exits 0" 0 code;
  Alcotest.(check int) "no findings" 0 (List.length lines)

let test_syntax_error_exits_2 () =
  guard_exe @@ fun () ->
  with_temp_ml "let = ( in\n" @@ fun path ->
  let code, _ = run_lint [ path ] in
  Alcotest.(check int) "exits 2" 2 code

let test_missing_input_exits_2 () =
  guard_exe @@ fun () ->
  let code, _ = run_lint [ "no_such_dir_anywhere" ] in
  Alcotest.(check int) "exits 2" 2 code

let test_only_restricts_registry () =
  guard_exe @@ fun () ->
  let bad = fixture "r1_bad.ml" in
  let code_other, lines_other =
    run_lint [ "--root"; fixture_root; "--only"; "R2"; bad ]
  in
  Alcotest.(check int) "R1 offense invisible to --only R2" 0 code_other;
  Alcotest.(check int) "no findings" 0 (List.length lines_other);
  let code_same, _ =
    run_lint [ "--root"; fixture_root; "--only"; "poly-compare"; bad ]
  in
  Alcotest.(check int) "rule names work in --only" 1 code_same

let test_except_drops_rules () =
  guard_exe @@ fun () ->
  let bad = fixture "r7_bad.ml" in
  let code_dropped, lines_dropped =
    run_lint [ "--root"; fixture_root; "--except"; "R7"; bad ]
  in
  Alcotest.(check int) "R7 offense invisible to --except R7" 0 code_dropped;
  Alcotest.(check int) "no findings" 0 (List.length lines_dropped);
  let code_kept, _ =
    run_lint [ "--root"; fixture_root; "--except"; "R1"; bad ]
  in
  Alcotest.(check int) "--except of another rule keeps R7" 1 code_kept;
  let code_name, _ =
    run_lint
      [ "--root"; fixture_root; "--except"; "concurrency-confinement"; bad ]
  in
  Alcotest.(check int) "rule names work in --except" 0 code_name

(* --- the acceptance scenario: a seeded offense in stats.ml ------------ *)

let stats_ml = Filename.concat (Filename.concat ".." "lib") "prob/stats.ml"

let test_scratch_stats_copy_flagged () =
  guard_exe @@ fun () ->
  if not (Sys.file_exists stats_ml) then Alcotest.skip ()
  else begin
    let ic = open_in_bin stats_ml in
    let orig =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let orig_lines = List.length (String.split_on_char '\n' orig) - 1 in
    let seeded =
      orig ^ "\nlet scratch_sort (xs : float array) = Array.sort compare xs\n"
    in
    with_temp_ml seeded @@ fun path ->
    (* full registry at lib scope: R4 also fires (no .mli next to the temp
       copy), so assert on the R1 finding specifically *)
    let code, lines = run_lint [ "--scope"; "lib"; path ] in
    Alcotest.(check int) "seeded copy exits 1" 1 code;
    match List.filter (has_sub "[R1 poly-compare]") lines with
    | [ line ] ->
        let expected = Printf.sprintf ":%d:" (orig_lines + 2) in
        Alcotest.(check bool)
          (Printf.sprintf "points at the seeded line (%d)" (orig_lines + 2))
          true
          (has_sub expected line)
    | _ -> Alcotest.fail "expected exactly one R1 finding in the seeded copy"
  end

(* --- suppression edge cases ------------------------------------------- *)

(* Offender one-liner shared by the suppression edge-case tests: R1
   (polymorphic sort on floats) and R2 (global Random) on the same line,
   so one suppression line can cover both. *)
let both_offenses = "let f (xs : float array) = Array.sort compare xs; Random.int 6"

let test_suppress_last_line_no_newline () =
  guard_exe @@ fun () ->
  (* no trailing newline: the marker sits on the file's final, unterminated
     line and must still be scanned *)
  let body = "let f (xs : float array) =\n  Array.sort compare xs" in
  (with_temp_ml body @@ fun path ->
   let code, lines = run_lint [ "--only"; "R1"; path ] in
   Alcotest.(check int) "unsuppressed last line exits 1" 1 code;
   Alcotest.(check int) "one R1 finding" 1 (List.length lines));
  with_temp_ml (body ^ " (* lint: allow R1 — last line, no newline *)")
  @@ fun path ->
  let code, lines = run_lint [ "--only"; "R1"; path ] in
  Alcotest.(check int) "suppressed last line exits 0" 0 code;
  Alcotest.(check int) "no findings" 0 (List.length lines)

let test_suppress_multi_ids_one_comment () =
  guard_exe @@ fun () ->
  (with_temp_ml (both_offenses ^ "\n") @@ fun path ->
   let code, lines = run_lint [ "--scope"; "lib"; "--only"; "R1,R2"; path ] in
   Alcotest.(check int) "both rules fire unsuppressed" 1 code;
   Alcotest.(check int) "two findings" 2 (List.length lines));
  with_temp_ml ("(* lint: allow R1 R2 — one comment, two ids *)\n" ^ both_offenses ^ "\n")
  @@ fun path ->
  let code, lines = run_lint [ "--scope"; "lib"; "--only"; "R1,R2"; path ] in
  Alcotest.(check int) "one comment silences both ids" 0 code;
  Alcotest.(check int) "no findings" 0 (List.length lines)

let test_suppress_two_markers_same_line () =
  guard_exe @@ fun () ->
  (* every marker on the line counts, not just the first *)
  with_temp_ml
    ("(* lint: allow R1 — first *) (* lint: allow R2 — second *)\n"
   ^ both_offenses ^ "\n")
  @@ fun path ->
  let code, lines = run_lint [ "--scope"; "lib"; "--only"; "R1,R2"; path ] in
  Alcotest.(check int) "second marker on the line is honored" 0 code;
  Alcotest.(check int) "no findings" 0 (List.length lines)

let test_suppress_crlf () =
  guard_exe @@ fun () ->
  let crlf lines = String.concat "\r\n" lines ^ "\r\n" in
  (with_temp_ml (crlf [ "let f (xs : float array) ="; "  Array.sort compare xs" ])
   @@ fun path ->
   let code, _ = run_lint [ "--only"; "R1"; path ] in
   Alcotest.(check int) "CRLF offender still detected" 1 code);
  with_temp_ml
    (crlf
       [
         "let f (xs : float array) =";
         "  (* lint: allow R1 — CRLF endings *)";
         "  Array.sort compare xs";
       ])
  @@ fun path ->
  let code, lines = run_lint [ "--only"; "R1"; path ] in
  Alcotest.(check int) "CRLF suppression honored" 0 code;
  Alcotest.(check int) "no findings" 0 (List.length lines)

(* --- --format json ----------------------------------------------------- *)

module Json = Rumor_obs.Json

let json_member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.fail ("JSON document lacks field " ^ name)

let test_json_format_round_trip () =
  guard_exe @@ fun () ->
  let code, lines =
    run_lint [ "--format"; "json"; "--root"; fixture_root; fixture "r1_bad.ml" ]
  in
  Alcotest.(check int) "exits 1" 1 code;
  let doc = Json.parse (String.concat "\n" lines) in
  Alcotest.(check (option string))
    "schema" (Some "rumor-lint/1")
    (Json.to_string (json_member "schema" doc));
  (match Json.to_list (json_member "errors" doc) with
  | Some [] -> ()
  | _ -> Alcotest.fail "expected an empty errors array");
  match Json.to_list (json_member "findings" doc) with
  | Some [ f ] ->
      (* same file/line/col the text format prints (test_finding_format) *)
      Alcotest.(check (option string))
        "file" (Some (fixture "r1_bad.ml"))
        (Json.to_string (json_member "file" f));
      Alcotest.(check (option int)) "line" (Some 4)
        (Json.to_int (json_member "line" f));
      Alcotest.(check (option int)) "col" (Some 13)
        (Json.to_int (json_member "col" f));
      Alcotest.(check (option string))
        "rule" (Some "R1")
        (Json.to_string (json_member "rule" f))
  | _ -> Alcotest.fail "expected exactly one finding in the JSON document"

(* --- the typed rules (R9-R12) over the compiled fixture libraries ------ *)

let typed_root = Filename.concat fixture_root "typed"
let tfixture name = Filename.concat typed_root name

let typed_args rest =
  [ "--typed"; "--cmt-root"; typed_root; "--scope"; "lib" ] @ rest

let guard_typed f =
  guard_exe @@ fun () ->
  if Sys.file_exists typed_root then f () else Alcotest.skip ()

let check_typed_quiet ~only name =
  let code, lines = run_lint (typed_args [ "--only"; only; tfixture name ]) in
  Alcotest.(check int) (name ^ " exits 0") 0 code;
  Alcotest.(check int) (name ^ " has no findings") 0 (List.length lines)

let test_r9_interprocedural_chain () =
  guard_typed @@ fun () ->
  let code, lines =
    run_lint (typed_args [ "--only"; "R9"; tfixture "r9_bad.ml" ])
  in
  Alcotest.(check int) "r9_bad exits 1" 1 code;
  match lines with
  | [ line ] ->
      Alcotest.(check bool) "rule tag" true
        (has_sub "[R9 effect-confinement]" line);
      Alcotest.(check bool) "points at the caller's definition" true
        (has_sub (tfixture "r9_bad.ml" ^ ":4:") line);
      (* the cross-module chain is printed end to end *)
      Alcotest.(check bool) "chain crosses into the helper module" true
        (has_sub "R9_helper" line);
      Alcotest.(check bool) "chain ends at the primitive" true
        (has_sub "Random.int" line);
      Alcotest.(check bool) "chain arrows present" true (has_sub " -> " line)
  | _ -> Alcotest.fail "expected exactly one R9 finding"

let test_r9_suppressed_and_clean () =
  guard_typed @@ fun () ->
  check_typed_quiet ~only:"R9" "r9_ok.ml";
  check_typed_quiet ~only:"R9" "r9_clean.ml"

let test_r10_hot_alloc () =
  guard_typed @@ fun () ->
  let code, lines =
    run_lint (typed_args [ "--only"; "R10"; tfixture "r10_bad.ml" ])
  in
  Alcotest.(check int) "r10_bad exits 1" 1 code;
  (match lines with
  | [ line ] ->
      Alcotest.(check bool) "rule tag" true (has_sub "[R10 hot-path-alloc]" line);
      Alcotest.(check bool) "points at the allocation site" true
        (has_sub (tfixture "r10_bad.ml" ^ ":7:15:") line);
      Alcotest.(check bool) "names the allocation kind" true
        (has_sub "tuple" line)
  | _ -> Alcotest.fail "expected exactly one R10 finding");
  check_typed_quiet ~only:"R10" "r10_ok.ml";
  check_typed_quiet ~only:"R10" "r10_clean.ml"

(* a hot function with no loop is checked over its whole body, minus the
   arguments of a raise; one with a loop only inside its loops *)
let test_r10_loop_free () =
  guard_typed @@ fun () ->
  let code, lines =
    run_lint (typed_args [ "--only"; "R10"; tfixture "r10_loopfree_bad.ml" ])
  in
  Alcotest.(check int) "r10_loopfree_bad exits 1" 1 code;
  (match lines with
  | [ line ] ->
      Alcotest.(check bool) "at the tuple" true
        (has_sub (tfixture "r10_loopfree_bad.ml" ^ ":6:13:") line);
      Alcotest.(check bool) "says the function has no loop" true
        (has_sub "no loop" line)
  | _ -> Alcotest.fail "expected exactly one R10 finding");
  check_typed_quiet ~only:"R10" "r10_loopfree_clean.ml"

(* the acceptance scenario: --only R10 against a seeded allocating copy of
   an engine round kernel *)
let test_r10_seeded_kernel () =
  guard_typed @@ fun () ->
  let code, lines =
    run_lint
      [ "--typed"; "--cmt-root"; typed_root; "--only"; "R10";
        tfixture "r10_kernel.ml" ]
  in
  Alcotest.(check int) "seeded kernel exits 1" 1 code;
  match lines with
  | [ line ] ->
      Alcotest.(check bool) "R10 fires" true (has_sub "[R10" line);
      Alcotest.(check bool) "at the seeded contact tuple" true
        (has_sub (tfixture "r10_kernel.ml" ^ ":11:18:") line);
      Alcotest.(check bool) "names the tuple" true (has_sub "tuple" line)
  | _ -> Alcotest.fail "expected exactly one finding in the seeded kernel"

let test_r11_domain_race () =
  guard_typed @@ fun () ->
  let code, lines =
    run_lint (typed_args [ "--only"; "R11"; tfixture "r11_bad.ml" ])
  in
  Alcotest.(check int) "r11_bad exits 1" 1 code;
  Alcotest.(check int) "direct write + transitive call = two findings" 2
    (List.length lines);
  let direct = List.filter (has_sub ":9:6:") lines in
  Alcotest.(check int) "the captured-ref write is flagged at its site" 1
    (List.length direct);
  Alcotest.(check bool) "write finding says what it writes" true
    (has_sub "writes" (List.hd direct));
  let chained = List.filter (has_sub ":17:2:") lines in
  Alcotest.(check int) "the closure->helper mutation is flagged at the call" 1
    (List.length chained);
  Alcotest.(check bool) "chained finding names the helper" true
    (has_sub "bump" (List.hd chained));
  Alcotest.(check bool) "chained finding prints the chain" true
    (has_sub " -> " (List.hd chained));
  check_typed_quiet ~only:"R11" "r11_ok.ml";
  check_typed_quiet ~only:"R11" "r11_clean.ml"

(* a top-level [let () =] body is analysed like a named definition *)
let test_r9_toplevel_body () =
  guard_typed @@ fun () ->
  let code, lines =
    run_lint (typed_args [ "--only"; "R9"; tfixture "r9_toplevel.ml" ])
  in
  Alcotest.(check int) "r9_toplevel exits 1" 1 code;
  match lines with
  | [ line ] ->
      Alcotest.(check bool) "at the let () line" true
        (has_sub (tfixture "r9_toplevel.ml" ^ ":4:") line);
      Alcotest.(check bool) "chain ends at the primitive" true
        (has_sub "Random.int" line)
  | _ -> Alcotest.fail "expected exactly one R9 finding"

(* R12's verdict on each export of the two-module fixture: a caller in
   another module or in a top-level body counts, a test's does not *)
let test_r12_unused_exports () =
  guard_typed @@ fun () ->
  let mli = tfixture "r12/lib/r12_exports.mli" in
  let code, lines = run_lint (typed_args [ "--only"; "R12"; mli ]) in
  Alcotest.(check int) "r12_exports exits 1" 1 code;
  let flagged name =
    List.exists (fun l -> has_sub ("R12_exports." ^ name ^ " is exported") l) lines
  in
  Alcotest.(check bool) "used from another module" false (flagged "used");
  Alcotest.(check bool) "used by nothing" true (flagged "unused");
  Alcotest.(check bool) "used only from test/" true (flagged "tested");
  Alcotest.(check bool) "used only from a let () main" false (flagged "main_only");
  Alcotest.(check bool) "used only in a functor body" false (flagged "functor_only");
  Alcotest.(check bool) "suppressed" false (flagged "kept");
  Alcotest.(check int) "two findings" 2 (List.length lines);
  Alcotest.(check bool) "reported at the val line" true
    (List.exists (has_sub (mli ^ ":6:0: [R12 unused-export]")) lines)

let test_json_chain_field () =
  guard_typed @@ fun () ->
  let code, lines =
    run_lint
      (typed_args [ "--only"; "R9"; "--format"; "json"; tfixture "r9_bad.ml" ])
  in
  Alcotest.(check int) "exits 1" 1 code;
  let doc = Json.parse (String.concat "\n" lines) in
  match Json.to_list (json_member "findings" doc) with
  | Some [ f ] -> (
      Alcotest.(check (option string))
        "rule" (Some "R9")
        (Json.to_string (json_member "rule" f));
      match Json.to_list (json_member "chain" f) with
      | Some steps ->
          Alcotest.(check bool) "chain has at least caller and callee" true
            (List.length steps >= 2)
      | None -> Alcotest.fail "R9 JSON finding lacks a chain array")
  | _ -> Alcotest.fail "expected exactly one R9 finding in the JSON document"

let suite =
  [
    Alcotest.test_case "corpus: one finding per rule" `Quick
      test_corpus_one_finding_per_rule;
    Alcotest.test_case "offenders exit 1 with exactly their rule" `Quick
      test_offenders_exit_1;
    Alcotest.test_case "suppressed fixtures exit 0" `Quick
      test_suppressed_exit_0;
    Alcotest.test_case "finding format file:line:col" `Quick
      test_finding_format;
    Alcotest.test_case "clean file exits 0" `Quick test_clean_file_exits_0;
    Alcotest.test_case "syntax error exits 2" `Quick test_syntax_error_exits_2;
    Alcotest.test_case "missing input exits 2" `Quick
      test_missing_input_exits_2;
    Alcotest.test_case "--only restricts the registry" `Quick
      test_only_restricts_registry;
    Alcotest.test_case "--except drops rules" `Quick test_except_drops_rules;
    Alcotest.test_case "seeded Array.sort compare in stats.ml copy" `Quick
      test_scratch_stats_copy_flagged;
    Alcotest.test_case "suppression on an unterminated last line" `Quick
      test_suppress_last_line_no_newline;
    Alcotest.test_case "several rule ids in one suppression comment" `Quick
      test_suppress_multi_ids_one_comment;
    Alcotest.test_case "two suppression markers on one line" `Quick
      test_suppress_two_markers_same_line;
    Alcotest.test_case "suppression under CRLF line endings" `Quick
      test_suppress_crlf;
    Alcotest.test_case "--format json round-trips file/line/rule" `Quick
      test_json_format_round_trip;
    Alcotest.test_case "R9 flags a cross-module chain to Random" `Quick
      test_r9_interprocedural_chain;
    Alcotest.test_case "R9 suppressed and clean fixtures are quiet" `Quick
      test_r9_suppressed_and_clean;
    Alcotest.test_case "R10 flags a tuple in a hot loop" `Quick
      test_r10_hot_alloc;
    Alcotest.test_case "R10 --only run on a seeded engine kernel" `Quick
      test_r10_seeded_kernel;
    Alcotest.test_case "R10 checks loop-free hot functions" `Quick test_r10_loop_free;
    Alcotest.test_case "R11 flags unsafe writes under Pool closures" `Quick
      test_r11_domain_race;
    Alcotest.test_case "R9 JSON finding carries its chain" `Quick
      test_json_chain_field;
    Alcotest.test_case "R9 sees a top-level let () body" `Quick
      test_r9_toplevel_body;
    Alcotest.test_case "R12 verdict per export of its fixture" `Quick
      test_r12_unused_exports;
  ]
