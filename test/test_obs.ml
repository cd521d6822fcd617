(* Tests for Rumor_obs: instrument hooks, run records, and the metrics
   wiring through Replicate. *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module P = Rumor_protocols
module Obs = Rumor_obs.Instrument
module Run_record = Rumor_obs.Run_record
module Replicate = Rumor_sim.Replicate
module Protocol = Rumor_sim.Protocol

let check_monotone name curve =
  Array.iteri
    (fun i x ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%s: curve.(%d) >= curve.(%d)" name i (i - 1))
          true
          (x >= curve.(i - 1)))
    curve

(* --- hooks fire exactly rounds_run times ----------------------------- *)

let test_hooks_fire_rounds_run () =
  List.iter
    (fun (name, spec) ->
      let rec_ = Obs.Recorder.create () in
      let r =
        Protocol.run ~obs:(Obs.Recorder.instrument rec_) spec (Rng.of_int 42)
          (Gen.complete 24) ~source:0 ~max_rounds:10_000
      in
      Alcotest.(check int)
        (name ^ ": round_start count")
        r.P.Run_result.rounds_run
        (Obs.Recorder.rounds_started rec_);
      Alcotest.(check int)
        (name ^ ": round_end count")
        r.P.Run_result.rounds_run
        (Obs.Recorder.rounds_ended rec_))
    [
      ("push", Protocol.push);
      ("push-pull", Protocol.push_pull);
      ("visit-exchange", Protocol.visit_exchange ());
      ("meet-exchange", Protocol.meet_exchange ());
      ("combined", Protocol.combined ());
    ]

let test_recorder_matches_run_result () =
  let rec_ = Obs.Recorder.create () in
  let r =
    P.Engine.push ~obs:(Obs.Recorder.instrument rec_) (Rng.of_int 7)
      (Gen.complete 32) ~source:0 ~max_rounds:10_000 ()
  in
  (* Run_result's curve has the round-0 state prepended *)
  let expected = Array.sub r.P.Run_result.informed_curve 1 r.P.Run_result.rounds_run in
  Alcotest.(check (array int)) "recorder curve = result curve tail" expected
    (Obs.Recorder.curve rec_);
  Alcotest.(check int) "contacts seen = contacts counted"
    r.P.Run_result.contacts (Obs.Recorder.contacts rec_);
  Alcotest.(check (option int)) "last informed = n" (Some 32)
    (Obs.Recorder.last_informed rec_)

let test_curves_monotone () =
  List.iter
    (fun (name, spec) ->
      let rec_ = Obs.Recorder.create () in
      let _ =
        Protocol.run ~obs:(Obs.Recorder.instrument rec_) spec (Rng.of_int 11)
          (Gen.cycle 64) ~source:0 ~max_rounds:100_000
      in
      check_monotone name (Obs.Recorder.curve rec_))
    [ ("push", Protocol.push); ("push-pull", Protocol.push_pull) ]

let test_pair_duplicates_hooks () =
  (* a paired instrument must drive both recorders identically — and the
     pair must see exactly what a single recorder would *)
  let rec_a = Obs.Recorder.create () and rec_b = Obs.Recorder.create () in
  let solo = Obs.Recorder.create () in
  let run obs =
    P.Engine.visit_exchange ~obs (Rng.of_int 13) (Gen.complete 12) ~source:0
      ~agents:(Rumor_agents.Placement.Stationary 12) ~max_rounds:10_000 ()
  in
  let paired =
    run (Obs.pair (Obs.Recorder.instrument rec_a) (Obs.Recorder.instrument rec_b))
  in
  let alone = run (Obs.Recorder.instrument solo) in
  Alcotest.(check (option int)) "same broadcast time"
    alone.P.Run_result.broadcast_time paired.P.Run_result.broadcast_time;
  List.iter
    (fun (name, r) ->
      Alcotest.(check int)
        (name ^ ": rounds started")
        (Obs.Recorder.rounds_started solo)
        (Obs.Recorder.rounds_started r);
      Alcotest.(check int)
        (name ^ ": contacts")
        (Obs.Recorder.contacts solo) (Obs.Recorder.contacts r);
      Alcotest.(check int)
        (name ^ ": walker moves")
        (Obs.Recorder.walker_moves solo)
        (Obs.Recorder.walker_moves r);
      Alcotest.(check (array int))
        (name ^ ": curve")
        (Obs.Recorder.curve solo) (Obs.Recorder.curve r))
    [ ("left", rec_a); ("right", rec_b) ]

let test_pair_calls_left_then_right () =
  let order = ref [] in
  let tag name =
    Obs.make ~on_round_end:(fun ~round:_ ~informed:_ ~contacts:_ ->
        order := name :: !order) ()
  in
  (Obs.pair (tag "a") (tag "b")).Obs.on_round_end ~round:1 ~informed:1
    ~contacts:0;
  Alcotest.(check (list string)) "left fires before right" [ "a"; "b" ]
    (List.rev !order)

let test_nop_does_not_change_result () =
  let run obs =
    P.Engine.push_pull ?obs (Rng.of_int 97) (Gen.complete 40) ~source:0
      ~max_rounds:10_000 ()
  in
  let plain = run None and instrumented = run (Some (Obs.make ())) in
  Alcotest.(check (option int)) "same broadcast time"
    plain.P.Run_result.broadcast_time instrumented.P.Run_result.broadcast_time;
  Alcotest.(check int) "same contacts" plain.P.Run_result.contacts
    instrumented.P.Run_result.contacts

let test_walker_moves_counted () =
  let rec_ = Obs.Recorder.create () in
  let r =
    P.Engine.visit_exchange ~obs:(Obs.Recorder.instrument rec_) (Rng.of_int 3)
      (Gen.complete 16) ~source:0 ~agents:(Rumor_agents.Placement.Stationary 16)
      ~max_rounds:10_000 ()
  in
  (* 16 agents each step once per round *)
  Alcotest.(check int) "one move per agent per round"
    (16 * r.P.Run_result.rounds_run)
    (Obs.Recorder.walker_moves rec_)

(* --- lazy-walk default on bipartite graphs --------------------------- *)

let test_meetx_even_cycle_terminates () =
  (* an even cycle is bipartite: the old non-lazy default could trap agents
     in parity classes forever; the Lazy_auto default must terminate *)
  let r =
    P.Engine.meet_exchange (Rng.of_int 5) (Gen.cycle 16) ~source:0
      ~agents:(Rumor_agents.Placement.Stationary 8) ~max_rounds:200_000 ()
  in
  Alcotest.(check bool) "completes under the bipartite-aware default" true
    (r.P.Run_result.broadcast_time <> None)

let test_async_meetx_k2_default () =
  let g = Gen.complete 2 in
  let r =
    P.Async_engine.meet_exchange (Rng.of_int 6) g ~source:0
      ~agents:(Rumor_agents.Placement.Stationary 2) ~max_time:1e6
  in
  Alcotest.(check bool) "continuous K2 completes" true
    (r.P.Async_meet_exchange.broadcast_time <> None)

(* --- run records ------------------------------------------------------ *)

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

let test_record_json_fields () =
  let json = Run_record.to_json sample_record in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "%S contains %S" json fragment)
        true
        (let fl = String.length fragment and jl = String.length json in
         let rec scan i = i + fl <= jl && (String.sub json i fl = fragment || scan (i + 1)) in
         scan 0))
    [
      "\"seed\":218";
      "\"rep\":3";
      "\"graph\":\"star:8\"";
      "\"protocol\":\"push\"";
      "\"vertices\":8";
      "\"broadcast_time\":5";
      "\"capped\":false";
      "\"informed_curve\":[1,2,4,8]";
      "\"minor_words\":";
    ];
  Alcotest.(check bool) "single line" true
    (not (String.contains json '\n'))

(* The record emitter writes numbers without Printf: every int must read as
   [string_of_int] spells it and every float as [%.17g] does, byte for
   byte — at the ends of the int range, at each power of ten, at signed
   zeros, subnormals and the float range's ends, and on random bit
   patterns (non-finite floats emit as null). *)
let test_json_numbers_match_stdlib () =
  let module Json = Rumor_obs.Json in
  let emit add x =
    let b = Buffer.create 32 in
    add b x;
    Buffer.contents b
  in
  let rng = Rng.of_int 97 in
  let powers = List.init 19 (fun e -> int_of_float (10.0 ** float_of_int e)) in
  let ints =
    [ 0; min_int; max_int; min_int + 1; max_int - 1 ]
    @ List.concat_map (fun p -> [ p; p - 1; p + 1; -p; 1 - p; -p - 1 ]) powers
    @ List.init 20_000 (fun _ -> Int64.to_int (Rng.bits64 rng))
  in
  List.iter
    (fun k -> Alcotest.(check string) "int" (string_of_int k) (emit Json.buf_add_int k))
    ints;
  let floats =
    [ 0.0; -0.0; 1.0; -1.0; 0.1; 1e22; 1e-7; Float.epsilon; Float.min_float;
      Float.max_float; -.Float.max_float; Int64.float_of_bits 1L;
      Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL; -.Int64.float_of_bits 1L;
      Float.nan; Float.infinity; Float.neg_infinity ]
    @ List.init 20_000 (fun _ -> Int64.float_of_bits (Rng.bits64 rng))
  in
  List.iter
    (fun x ->
      let want = if Float.is_finite x then Printf.sprintf "%.17g" x else "null" in
      Alcotest.(check string) "float" want (emit Json.buf_add_float x))
    floats

let test_record_json_null_when_capped () =
  let json =
    Run_record.to_json
      { sample_record with Run_record.broadcast_time = None; capped = true }
  in
  let contains fragment =
    let fl = String.length fragment and jl = String.length json in
    let rec scan i = i + fl <= jl && (String.sub json i fl = fragment || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "null broadcast_time" true
    (contains "\"broadcast_time\":null");
  Alcotest.(check bool) "capped true" true (contains "\"capped\":true")

(* Records written while both kernel paths existed carry an "engine" flag,
   and records written while round kernels could shard carry a "shards"
   count: they still load, both fields are ignored, and neither is written
   back. *)
let test_record_engine_field_ignored () =
  let line =
    "{\"seed\":218,\"rep\":3,\"graph\":\"star:8\",\"protocol\":\"push\",\
     \"vertices\":8,\"broadcast_time\":5,\"rounds_run\":5,\"capped\":false,\
     \"contacts\":40,\"informed_curve\":[1,2,4,8],\"wall_seconds\":0.125,\
     \"gc\":{\"minor_words\":10,\"major_words\":2,\"promoted_words\":1},\
     \"engine\":true,\"shards\":2}"
  in
  match Run_record.of_json line with
  | Error msg -> Alcotest.failf "pre-change record rejected: %s" msg
  | Ok back ->
      Alcotest.(check (array int)) "curve" [| 1; 2; 4; 8 |]
        back.Run_record.informed_curve;
      Alcotest.(check string) "re-serialised without engine or shards"
        (Run_record.to_json sample_record)
        (Run_record.to_json back)

(* the retired "shards" field is ignored whatever its type: no reader is
   left to reject a malformed one *)
let test_record_shards_any_type () =
  let line shards =
    "{\"seed\":218,\"rep\":3,\"graph\":\"star:8\",\"protocol\":\"push\",\
     \"vertices\":8,\"broadcast_time\":5,\"rounds_run\":5,\"capped\":false,\
     \"contacts\":40,\"informed_curve\":[1,2,4,8],\"wall_seconds\":0.125,\
     \"gc\":{\"minor_words\":10,\"major_words\":2,\"promoted_words\":1},\
     \"shards\":" ^ shards ^ "}"
  in
  List.iter
    (fun shards ->
      match Run_record.of_json (line shards) with
      | Error msg -> Alcotest.failf "shards %s rejected: %s" shards msg
      | Ok back ->
          Alcotest.(check string) ("shards " ^ shards ^ " dropped")
            (Run_record.to_json sample_record)
            (Run_record.to_json back))
    [ "0"; "null"; "\"2\""; "[1,2]"; "{\"count\":2}" ]

let test_jsonl_file_roundtrip () =
  let path = Filename.temp_file "rumor_obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Run_record.with_jsonl_file path (fun sink ->
          sink sample_record;
          sink { sample_record with Run_record.rep = 4 });
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      Alcotest.(check int) "two lines" 2 (List.length !lines);
      List.iter
        (fun l ->
          Alcotest.(check bool) "line is a JSON object" true
            (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        !lines)

let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> close_in ic);
  !n

let test_jsonl_append_flag () =
  let path = Filename.temp_file "rumor_obs_append" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Run_record.with_jsonl_file path (fun sink ->
          sink sample_record;
          sink sample_record);
      Run_record.with_jsonl_file ~append:true path (fun sink ->
          sink { sample_record with Run_record.rep = 4 });
      Alcotest.(check int) "append keeps earlier records" 3 (count_lines path);
      Alcotest.(check int) "appended records read back" 3
        (List.length (Run_record.read_jsonl path));
      Run_record.with_jsonl_file path (fun sink -> sink sample_record);
      Alcotest.(check int) "default truncates" 1 (count_lines path))

(* --- Replicate wiring ------------------------------------------------- *)

let test_sink_gets_one_record_per_rep () =
  let records = ref [] in
  let m =
    Replicate.broadcast_times
      ~sink:(fun r -> records := r :: !records)
      ~graph_name:"complete:16" ~seed:218 ~reps:5
      ~graph:(fun _rng -> (Gen.complete 16, 0))
      ~spec:Protocol.push ~max_rounds:10_000 ()
  in
  let records = List.rev !records in
  Alcotest.(check int) "five records" 5 (List.length records);
  List.iteri
    (fun i (r : Run_record.t) ->
      Alcotest.(check int) "rep index" i r.Run_record.rep;
      Alcotest.(check int) "seed recorded" 218 r.Run_record.seed;
      Alcotest.(check string) "graph label" "complete:16" r.Run_record.graph;
      Alcotest.(check string) "protocol name" "push" r.Run_record.protocol;
      Alcotest.(check int) "vertices" 16 r.Run_record.vertices;
      Alcotest.(check bool) "not capped" false r.Run_record.capped;
      Alcotest.(check bool) "wall clock non-negative" true
        (r.Run_record.wall_seconds >= 0.0);
      Alcotest.(check bool) "allocated something" true
        (r.Run_record.gc.Run_record.minor_words >= 0.0);
      check_monotone "record curve" r.Run_record.informed_curve)
    records;
  (* times must agree with the records' broadcast times *)
  List.iteri
    (fun i (r : Run_record.t) ->
      match r.Run_record.broadcast_time with
      | Some t ->
          Alcotest.(check (float 1e-9)) "times matches record" (float_of_int t)
            m.Replicate.times.(i)
      | None -> Alcotest.fail "unexpected capped run")
    records

let capped_push ~trace:_ ~rep:_ rng =
  P.Engine.push rng (Gen.path 50) ~source:0 ~max_rounds:2 ()

let test_on_capped_keep_default () =
  let m = Replicate.measure ~seed:216 ~reps:4 capped_push in
  Alcotest.(check int) "all counted as capped" 4 m.Replicate.capped

let test_on_capped_fail_raises () =
  match Replicate.measure ~on_capped:`Fail ~seed:216 ~reps:4 capped_push with
  | exception Replicate.Capped { rep; rounds_run } ->
      Alcotest.(check int) "first rep raises" 0 rep;
      Alcotest.(check int) "cap recorded" 2 rounds_run
  | _ -> Alcotest.fail "expected Replicate.Capped"

let test_record_sees_capped_runs () =
  let capped_flags = ref [] in
  let m =
    Replicate.broadcast_times
      ~sink:(fun r -> capped_flags := r.Run_record.capped :: !capped_flags)
      ~seed:216 ~reps:3
      ~graph:(fun _rng -> (Gen.path 50, 0))
      ~spec:Protocol.push ~max_rounds:2 ()
  in
  Alcotest.(check int) "measurement counts caps" 3 m.Replicate.capped;
  Alcotest.(check (list bool)) "records flag caps" [ true; true; true ]
    !capped_flags

(* the one wall clock: microseconds are seconds scaled, elapsed time is
   measured from a reading *)
let test_clock () =
  let module Clock = Rumor_obs.Clock in
  let s = Clock.now_s () in
  let us = Clock.now_us () in
  Alcotest.(check bool) "now_us = 1e6 * now_s, a second apart at most" true
    (us >= s *. 1e6 && us -. (s *. 1e6) < 1e6);
  let e = Clock.elapsed_s ~since:s in
  Alcotest.(check bool) "elapsed since a reading is small and not negative" true
    (e >= 0.0 && e < 60.0);
  Alcotest.(check bool) "elapsed since an hour ago" true
    (Clock.elapsed_s ~since:(s -. 3600.0) >= 3600.0)

let test_timed () =
  let result, seconds, gc = Run_record.timed (fun () -> Array.length (Array.make 1000 0.0)) in
  Alcotest.(check int) "result passed through" 1000 result;
  Alcotest.(check bool) "elapsed >= 0" true (seconds >= 0.0);
  Alcotest.(check bool) "the float array counted" true
    (gc.Run_record.minor_words +. gc.Run_record.major_words >= 1000.0)

(* the option helpers the kernels call: nothing happens without an
   instrument, and each helper reaches its own hook *)
let test_option_helpers () =
  Obs.round_start None 1;
  Obs.round_end None ~round:1 ~informed:2 ~contacts:3;
  Obs.contact None 0 1;
  Obs.walker_move None ~agent:0 ~from_:0 ~to_:1;
  Obs.occupancy None ~round:1 ~occupied:1 ~walkers:1;
  let r = Obs.Recorder.create () in
  let obs = Some (Obs.Recorder.instrument r) in
  Obs.round_start obs 1;
  Obs.contact obs 0 1;
  Obs.contact obs 1 2;
  Obs.walker_move obs ~agent:0 ~from_:0 ~to_:1;
  Obs.occupancy obs ~round:1 ~occupied:4 ~walkers:9;
  Obs.round_end obs ~round:1 ~informed:3 ~contacts:2;
  Alcotest.(check int) "round started" 1 (Obs.Recorder.rounds_started r);
  Alcotest.(check int) "contacts" 2 (Obs.Recorder.contacts r);
  Alcotest.(check int) "walker moves" 1 (Obs.Recorder.walker_moves r);
  Alcotest.(check int) "occupancy events" 1 (Obs.Recorder.occupancy_events r);
  Alcotest.(check (option int)) "occupied" (Some 4) (Obs.Recorder.last_occupied r);
  Alcotest.(check int) "round ended" 1 (Obs.Recorder.rounds_ended r);
  Alcotest.(check (array int)) "curve" [| 3 |] (Obs.Recorder.curve r);
  (* omitted hooks of [make] are no-ops *)
  let starts = ref 0 in
  let only_starts = Some (Obs.make ~on_round_start:(fun _ -> incr starts) ()) in
  Obs.round_start only_starts 1;
  Obs.contact only_starts 0 1;
  Obs.round_end only_starts ~round:1 ~informed:1 ~contacts:1;
  Alcotest.(check int) "only the given hook ran" 1 !starts

let suite =
  [
    Alcotest.test_case "hooks fire rounds_run times" `Quick
      test_hooks_fire_rounds_run;
    Alcotest.test_case "recorder matches run result" `Quick
      test_recorder_matches_run_result;
    Alcotest.test_case "curves monotone" `Quick test_curves_monotone;
    Alcotest.test_case "pair duplicates hooks" `Quick test_pair_duplicates_hooks;
    Alcotest.test_case "pair calls left then right" `Quick
      test_pair_calls_left_then_right;
    Alcotest.test_case "nop obs preserves results" `Quick
      test_nop_does_not_change_result;
    Alcotest.test_case "walker moves counted" `Quick test_walker_moves_counted;
    Alcotest.test_case "meet-exchange terminates on even cycle" `Quick
      test_meetx_even_cycle_terminates;
    Alcotest.test_case "async meet-exchange K2 default" `Quick
      test_async_meetx_k2_default;
    Alcotest.test_case "record JSON fields" `Quick test_record_json_fields;
    Alcotest.test_case "JSON numbers match string_of_int and %.17g" `Quick
      test_json_numbers_match_stdlib;
    Alcotest.test_case "record JSON capped null" `Quick
      test_record_json_null_when_capped;
    Alcotest.test_case "pre-change record with engine flag parses" `Quick
      test_record_engine_field_ignored;
    Alcotest.test_case "retired shards field ignored whatever its type" `Quick
      test_record_shards_any_type;
    Alcotest.test_case "JSONL file roundtrip" `Quick test_jsonl_file_roundtrip;
    Alcotest.test_case "JSONL append flag" `Quick test_jsonl_append_flag;
    Alcotest.test_case "sink gets one record per rep" `Quick
      test_sink_gets_one_record_per_rep;
    Alcotest.test_case "on_capped keep default" `Quick test_on_capped_keep_default;
    Alcotest.test_case "on_capped fail raises" `Quick test_on_capped_fail_raises;
    Alcotest.test_case "records see capped runs" `Quick
      test_record_sees_capped_runs;
    Alcotest.test_case "clock readings" `Quick test_clock;
    Alcotest.test_case "timed result, time and allocation" `Quick test_timed;
    Alcotest.test_case "option helpers reach their hooks" `Quick test_option_helpers;
  ]
