(* Tests for Rumor_sim.Sparkline. *)

module Sparkline = Rumor_sim.Sparkline

let test_empty () =
  Alcotest.(check string) "empty series" "" (Sparkline.render [||])

let test_width () =
  let xs = Array.init 100 float_of_int in
  let line = Sparkline.render ~ascii:true ~width:20 xs in
  Alcotest.(check int) "width respected" 20 (String.length line)

let test_short_series_not_padded () =
  let line = Sparkline.render ~ascii:true ~width:60 [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "one char per point" 3 (String.length line)

let test_ascii_monotone () =
  (* increasing data yields non-decreasing glyph levels *)
  let levels = " .:-=+*#@" in
  let xs = Array.init 9 (fun i -> float_of_int i) in
  let line = Sparkline.render ~ascii:true ~width:9 xs in
  let rank c = String.index levels c in
  for i = 1 to String.length line - 1 do
    if rank line.[i] < rank line.[i - 1] then Alcotest.fail "not monotone"
  done;
  Alcotest.(check char) "max glyph at the top" '@' line.[8]

let test_all_zero () =
  let line = Sparkline.render ~ascii:true [| 0.0; 0.0; 0.0 |] in
  Alcotest.(check string) "flat at zero" "   " line

let test_downsampling_keeps_peak () =
  (* a single spike must survive bucketed downsampling *)
  let xs = Array.make 600 0.0 in
  xs.(300) <- 10.0;
  let line = Sparkline.render ~ascii:true ~width:30 xs in
  Alcotest.(check bool) "peak visible" true (String.contains line '@')

let test_render_ints () =
  let line = Sparkline.render_ints ~ascii:true [| 0; 5; 10 |] in
  Alcotest.(check int) "length" 3 (String.length line);
  Alcotest.(check char) "last at max" '@' line.[2]

let test_blocks_by_default () =
  Alcotest.(check string) "block glyphs" " \u{2584}\u{2588}" (Sparkline.render [| 0.0; 4.0; 8.0 |])

let test_negative_clamped () =
  Alcotest.(check string) "below zero draws as zero" " @"
    (Sparkline.render ~ascii:true [| -5.0; 10.0 |]);
  Alcotest.(check string) "all negative is flat" "  "
    (Sparkline.render ~ascii:true [| -1.0; -2.0 |])

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "width" `Quick test_width;
    Alcotest.test_case "short series" `Quick test_short_series_not_padded;
    Alcotest.test_case "monotone levels" `Quick test_ascii_monotone;
    Alcotest.test_case "all zero" `Quick test_all_zero;
    Alcotest.test_case "downsampling keeps peaks" `Quick test_downsampling_keeps_peak;
    Alcotest.test_case "render_ints" `Quick test_render_ints;
    Alcotest.test_case "block glyphs by default" `Quick test_blocks_by_default;
    Alcotest.test_case "negative values clamped" `Quick test_negative_clamped;
  ]
