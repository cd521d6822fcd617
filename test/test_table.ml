(* Tests for Rumor_sim.Table. *)

module Table = Rumor_sim.Table

let sample () =
  Table.make ~title:"demo" ~claim:"a claim" ~header:[ "name"; "value" ]
    ~aligns:[ Table.Left; Table.Right ]
    [ [ "alpha"; "1" ]; [ "bb"; "22" ] ]

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_render_contains_everything () =
  let text = Table.render (sample ()) in
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " present") true (contains s text))
    [ "demo"; "a claim"; "name"; "value"; "alpha"; "bb"; "22" ]

let test_render_alignment () =
  let text = Table.render (sample ()) in
  let lines = String.split_on_char '\n' text in
  (* header, rule, and both rows all share the same width *)
  let rows = List.filteri (fun i _ -> i >= 2 && i <= 5) lines in
  match rows with
  | [ header; rule; r1; r2 ] ->
      Alcotest.(check int) "rule width" (String.length header) (String.length rule);
      Alcotest.(check int) "row widths equal" (String.length r1) (String.length r2)
  | _ -> Alcotest.fail "unexpected table shape"

let test_row_width_mismatch_rejected () =
  try
    ignore (Table.make ~title:"t" ~claim:"" ~header:[ "a"; "b" ] [ [ "only one" ] ]);
    Alcotest.fail "ragged row accepted"
  with Invalid_argument _ -> ()

let test_notes_rendered () =
  let t =
    Table.make ~notes:[ "note one"; "note two" ] ~title:"t" ~claim:"" ~header:[ "x" ]
      [ [ "1" ] ]
  in
  let text = Table.render t in
  Alcotest.(check bool) "notes present" true
    (contains "note: note one" text && contains "note: note two" text)

let test_csv_plain () =
  let csv = Table.to_csv (sample ()) in
  Alcotest.(check string) "csv" "name,value\nalpha,1\nbb,22\n" csv

let test_csv_escaping () =
  let t =
    Table.make ~title:"t" ~claim:"" ~header:[ "a"; "b" ]
      [ [ "has,comma"; "has\"quote" ] ]
  in
  let csv = Table.to_csv t in
  Alcotest.(check string) "escaped" "a,b\n\"has,comma\",\"has\"\"quote\"\n" csv

let test_markdown () =
  let md = Table.to_markdown (sample ()) in
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " present") true (contains s md))
    [ "**demo**"; "> a claim"; "| name | value |"; "|:---|---:|"; "| alpha | 1 |" ]

let test_markdown_pipe_escaped () =
  let t =
    Table.make ~title:"t" ~claim:"" ~header:[ "a" ] [ [ "x|y" ] ]
  in
  Alcotest.(check bool) "pipe escaped" true (contains "x\\|y" (Table.to_markdown t))

let test_fmt_mean_pm () =
  let cell xs = Table.fmt_mean_pm (Rumor_prob.Stats.summarize xs) in
  Alcotest.(check string) "no spread" "10 ±0" (cell [| 10.0; 10.0; 10.0; 10.0 |]);
  (* integers render bare, everything else with one decimal *)
  Alcotest.(check string) "fractional" "3.5 ±1.0" (cell [| 3.0; 4.0 |]);
  Alcotest.(check string) "rounded" "3.1 ±0" (cell [| 3.14159 |])

(* a column with no entry in [aligns] is right-aligned *)
let test_missing_aligns_default_right () =
  let make aligns =
    Table.make ?aligns ~title:"t" ~claim:"" ~header:[ "a"; "b" ] [ [ "x"; "1" ] ]
  in
  Alcotest.(check bool) "no aligns" true (contains "|---:|---:|" (Table.to_markdown (make None)));
  Alcotest.(check bool) "first column only" true
    (contains "|:---|---:|" (Table.to_markdown (make (Some [ Table.Left ]))))

let suite =
  [
    Alcotest.test_case "render contents" `Quick test_render_contains_everything;
    Alcotest.test_case "render alignment" `Quick test_render_alignment;
    Alcotest.test_case "ragged rows rejected" `Quick test_row_width_mismatch_rejected;
    Alcotest.test_case "notes rendered" `Quick test_notes_rendered;
    Alcotest.test_case "csv plain" `Quick test_csv_plain;
    Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
    Alcotest.test_case "markdown" `Quick test_markdown;
    Alcotest.test_case "markdown pipe escaping" `Quick test_markdown_pipe_escaped;
    Alcotest.test_case "fmt_mean_pm" `Quick test_fmt_mean_pm;
    Alcotest.test_case "missing aligns default to right" `Quick test_missing_aligns_default_right;
  ]
