(* The tracing subsystem end to end: span nesting discipline, export
   refusal on unbalanced tracers, stable per-worker track ids through the
   pool, the Chrome document parsing with the in-repo JSON reader, the
   reader round-trip over both on-disk formats, the [rumor_report trace]
   exit-code contract, and a [rumor_run --trace] export. *)

module Trace = Rumor_obs.Trace
module Counters = Rumor_obs.Counters
module Json = Rumor_obs.Json
module Pool = Rumor_par.Pool

let with_temp_file ext f =
  let path = Filename.temp_file "rumor_trace_test" ext in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* --- nesting discipline ------------------------------------------------ *)

let test_nesting_balance () =
  let t = Trace.create () in
  Alcotest.(check int) "fresh tracer balanced" 0 (Trace.open_spans t);
  Trace.begin_span t "outer";
  Trace.begin_span t ~arg:3 "inner";
  Alcotest.(check int) "two open" 2 (Trace.open_spans t);
  Trace.end_span t;
  Trace.end_span t;
  Alcotest.(check int) "balanced again" 0 (Trace.open_spans t);
  Alcotest.(check int) "both spans recorded" 2 (Trace.events t);
  Alcotest.check_raises "end_span with nothing open"
    (Invalid_argument "Trace.end_span: no open span") (fun () ->
      Trace.end_span t)

let test_export_refuses_open_spans () =
  let t = Trace.create () in
  Trace.begin_span t "left-open";
  let expect_refusal name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a tracer with an open span" name
    | exception Invalid_argument _ -> ()
  in
  with_temp_file ".json" (fun path ->
      expect_refusal "write_chrome" (fun () -> Trace.write_chrome t path));
  with_temp_file ".jsonl" (fun path ->
      expect_refusal "write_jsonl" (fun () -> Trace.write_jsonl t path));
  Trace.end_span t;
  (* once balanced, both exports go through *)
  with_temp_file ".json" (fun path ->
      Trace.write_chrome t path;
      Alcotest.(check bool) "chrome written" true (Sys.file_exists path));
  with_temp_file ".jsonl" (fun path ->
      Trace.write_jsonl t path;
      Alcotest.(check bool) "jsonl written" true (Sys.file_exists path))

(* --- Chrome document shape --------------------------------------------- *)

let sample_tracer () =
  let t = Trace.create () in
  Trace.begin_span t "phase";
  Trace.begin_span t ~arg:7 "step";
  Trace.end_span t;
  Trace.end_span t;
  Trace.instant t ~arg:2 "mark";
  Trace.counter t "frontier" 42;
  Counters.incr (Counters.counter (Trace.counters t) "contacts");
  t

let test_chrome_json_parses () =
  let t = sample_tracer () in
  with_temp_file ".json" (fun path ->
      Trace.write_chrome t path;
      let doc = Json.parse (read_file path) in
      let events =
        match Option.bind (Json.member "traceEvents" doc) Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no traceEvents array"
      in
      let has field v e =
        match Option.bind (Json.member field e) Json.to_string with
        | Some s -> String.equal s v
        | None -> false
      in
      let name = has "name" in
      let with_ph p = List.filter (has "ph" p) events in
      Alcotest.(check bool)
        "has process/thread metadata records" true
        (List.exists (name "process_name") (with_ph "M"));
      Alcotest.(check int) "two complete spans" 2 (List.length (with_ph "X"));
      Alcotest.(check int) "one instant" 1 (List.length (with_ph "i"));
      Alcotest.(check int) "one counter sample" 1 (List.length (with_ph "C"));
      let step =
        match List.find_opt (name "step") events with
        | Some e -> e
        | None -> Alcotest.fail "span \"step\" missing"
      in
      Alcotest.(check (option int))
        "span arg exported under args.arg" (Some 7)
        (Option.bind
           (Option.bind (Json.member "args" step) (Json.member "arg"))
           Json.to_int);
      Alcotest.(check bool)
        "span carries a dur field" true
        (Option.is_some (Json.member "dur" step));
      Alcotest.(check (option string))
        "display unit" (Some "ms")
        (Option.bind (Json.member "displayTimeUnit" doc) Json.to_string);
      Alcotest.(check (option int))
        "counter registry serialized" (Some 1)
        (Option.bind
           (Option.bind
              (Option.bind (Json.member "counters" doc)
                 (Json.member "counters"))
              (Json.member "contacts"))
           Json.to_int))

(* --- reader round-trip over both formats -------------------------------- *)

let skeleton file =
  List.map
    (fun (e : Trace.event) -> (e.ph, e.name, e.tid, e.arg, e.value))
    file.Trace.file_events

let test_read_file_roundtrip () =
  let t = sample_tracer () in
  let load path =
    match Trace.read_file path with
    | Ok f -> f
    | Error msg -> Alcotest.failf "read_file %s: %s" path msg
  in
  let chrome =
    with_temp_file ".json" (fun path ->
        Trace.write_chrome t path;
        load path)
  in
  let jsonl =
    with_temp_file ".jsonl" (fun path ->
        Trace.write_jsonl t path;
        load path)
  in
  let expected =
    [
      (`Span, "phase", 0, None, 0);
      (`Span, "step", 0, Some 7, 0);
      (`Instant, "mark", 0, Some 2, 0);
      (`Counter, "frontier", 0, None, 42);
    ]
  in
  let sort l =
    List.sort (fun (_, a, _, _, _) (_, b, _, _, _) -> String.compare a b) l
  in
  let pp fmt (_, name, tid, arg, value) =
    Format.fprintf fmt "%s tid=%d arg=%s value=%d" name tid
      (match arg with None -> "-" | Some a -> string_of_int a)
      value
  in
  let ph_eq a b =
    match (a, b) with
    | `Span, `Span | `Instant, `Instant | `Counter, `Counter -> true
    | _ -> false
  in
  let eq (p1, n1, t1, a1, v1) (p2, n2, t2, a2, v2) =
    ph_eq p1 p2 && String.equal n1 n2 && t1 = t2
    && Option.equal Int.equal a1 a2
    && v1 = v2
  in
  let ev = Alcotest.testable pp eq in
  Alcotest.(check (list ev))
    "chrome reader recovers the events" (sort expected) (sort (skeleton chrome));
  Alcotest.(check (list ev))
    "jsonl reader recovers the events" (sort expected) (sort (skeleton jsonl));
  let span_of file =
    List.find (fun (e : Trace.event) -> String.equal e.name "step")
      file.Trace.file_events
  in
  Alcotest.(check bool)
    "span durations are non-negative" true
    ((span_of chrome).dur_us >= 0.0 && (span_of jsonl).dur_us >= 0.0);
  let counter_value file =
    Option.bind
      (Option.bind
         (Json.member "counters" (Counters.to_json file.Trace.file_counters))
         (Json.member "contacts"))
      Json.to_int
  in
  Alcotest.(check (option int))
    "chrome counters round-trip" (Some 1) (counter_value chrome);
  Alcotest.(check (option int))
    "jsonl counters round-trip" (Some 1) (counter_value jsonl)

(* --- worker track ids through the pool ---------------------------------- *)

let pool_trace ~jobs =
  let pool = Pool.create ~jobs in
  let trace = Trace.create () in
  let out =
    Pool.init_traced ~trace ~label:"work" pool 64 (fun ~trace:_ i -> i * i)
  in
  Alcotest.(check int) "results intact" (63 * 63) out.(63);
  Alcotest.(check int) "tracer balanced after run" 0 (Trace.open_spans trace);
  with_temp_file ".jsonl" (fun path ->
      Trace.write_jsonl trace path;
      match Trace.read_file path with
      | Ok f -> f.Trace.file_events
      | Error msg -> Alcotest.failf "read_file: %s" msg)

let tids events =
  List.sort_uniq Int.compare
    (List.map (fun (e : Trace.event) -> e.Trace.tid) events)

let test_worker_tids_stable () =
  let events = pool_trace ~jobs:3 in
  Alcotest.(check (list int))
    "three tracks: main + one per spawned worker" [ 0; 1; 2 ] (tids events);
  let worker_spans =
    List.filter
      (fun (e : Trace.event) -> String.equal e.name "pool.worker")
      events
  in
  Alcotest.(check (list int))
    "every track records a pool.worker span" [ 0; 1; 2 ]
    (tids worker_spans);
  (* the same pool shape always yields the same track ids *)
  Alcotest.(check (list int))
    "tids stable across runs" [ 0; 1; 2 ]
    (tids (pool_trace ~jobs:3))

let test_sequential_item_spans () =
  (* jobs = 1 must still emit one span per item so a replicated run's trace
     shows the same per-rep-chunk spans at any --jobs setting *)
  let events = pool_trace ~jobs:1 in
  let chunks =
    List.filter (fun (e : Trace.event) -> String.equal e.name "work") events
  in
  Alcotest.(check int) "one span per item" 64 (List.length chunks);
  Alcotest.(check (list int)) "all on the main track" [ 0 ] (tids chunks);
  Alcotest.(check bool)
    "spans carry the item index" true
    (List.exists
       (fun (e : Trace.event) -> match e.arg with Some 63 -> true | _ -> false)
       chunks)

(* --- rumor_report trace exit codes -------------------------------------- *)

let report_exe = Filename.concat (Filename.concat ".." "bin") "rumor_report.exe"

let test_report_trace_exit_codes () =
  if not (Sys.file_exists report_exe) then Alcotest.skip ()
  else
    let run args =
      Sys.command
        (Filename.quote_command report_exe args ~stdout:"/dev/null"
           ~stderr:"/dev/null")
    in
    with_temp_file ".jsonl" (fun well_formed ->
        let t = Trace.create () in
        for item = 0 to 1 do
          Trace.begin_span t ~arg:item "work";
          ignore (Sys.opaque_identity (Array.make (1 + (item * 4096)) 0.0));
          Trace.end_span t
        done;
        Trace.write_jsonl t well_formed;
        Alcotest.(check int) "well-formed trace exits 0" 0
          (run [ "trace"; well_formed ]));
    with_temp_file ".jsonl" (fun garbage ->
        Out_channel.with_open_text garbage (fun oc ->
            output_string oc "this is not a trace\n");
        Alcotest.(check int) "malformed input exits 2" 2
          (run [ "trace"; garbage ]))

(* --- rumor_run --trace end to end ----------------------------------------- *)

let run_exe = Filename.concat (Filename.concat ".." "bin") "rumor_run.exe"

(* A replicated run's Chrome trace holds one rep span per rep and one round
   span per round each rep ran (as its metrics report), and rumor_report
   trace profiles it. *)
let test_rumor_run_trace () =
  if not (Sys.file_exists run_exe && Sys.file_exists report_exe) then
    Alcotest.skip ()
  else
    let run exe args =
      Sys.command
        (Filename.quote_command exe args ~stdout:"/dev/null" ~stderr:"/dev/null")
    in
    with_temp_file ".json" (fun trace_path ->
        with_temp_file ".jsonl" (fun metrics ->
            Alcotest.(check int) "rumor_run exits 0" 0
              (run run_exe
                 [ "--graph"; "er:300,0.05"; "-p"; "push-pull"; "--reps"; "3";
                   "--seed"; "5"; "--trace"; trace_path; "--metrics"; metrics ]);
            let events =
              match Trace.read_file trace_path with
              | Ok f -> f.Trace.file_events
              | Error msg -> Alcotest.failf "read_file: %s" msg
            in
            let spans name =
              List.filter
                (fun (e : Trace.event) ->
                  e.Trace.ph = `Span && String.equal e.Trace.name name)
                events
            in
            Alcotest.(check int) "one rep span per rep" 3
              (List.length (spans "rep"));
            let rounds =
              List.fold_left
                (fun acc (r : Rumor_obs.Run_record.t) ->
                  acc + r.Rumor_obs.Run_record.rounds_run)
                0
                (Rumor_obs.Run_record.read_jsonl metrics)
            in
            Alcotest.(check int) "one round span per round run" rounds
              (List.length (spans "push_pull.round"));
            Alcotest.(check int) "rumor_report trace profiles it" 0
              (run report_exe [ "trace"; trace_path ])))

(* --- counter registry ------------------------------------------------- *)

(* a counter is found again by name; bumps are monotonic *)
let test_counter_by_name () =
  let cs = Counters.create () in
  Alcotest.(check bool) "fresh registry empty" true (Counters.is_empty cs);
  Counters.incr (Counters.counter cs "contacts");
  Counters.add (Counters.counter cs "contacts") 4;
  Alcotest.(check int) "one cell per name" 5 (Counters.value (Counters.counter cs "contacts"));
  Alcotest.(check bool) "no longer empty" false (Counters.is_empty cs);
  Alcotest.check_raises "negative bump"
    (Invalid_argument "Counters.add: negative bump on \"contacts\"") (fun () ->
      Counters.add (Counters.counter cs "contacts") (-1))

(* x lands in the first bucket with x <= bound, past the last in overflow *)
let test_histogram_buckets () =
  let cs = Counters.create () in
  let h = Counters.histogram cs "per_round" ~buckets:[| 1.0; 10.0; 100.0 |] in
  List.iter (Counters.observe h) [ 0.5; 1.0; 5.0; 100.0; 1000.0; 101.0 ];
  Alcotest.(check (array int)) "bucket counts" [| 2; 1; 1; 2 |] (Counters.bucket_counts h);
  let again = Counters.histogram cs "per_round" ~buckets:[| 1.0; 10.0; 100.0 |] in
  Counters.observe again 2.0;
  Alcotest.(check (array int)) "same cells by name" [| 2; 2; 1; 2 |] (Counters.bucket_counts h);
  let refused label f =
    match f () with
    | (_ : Counters.histogram) -> Alcotest.failf "%s accepted" label
    | exception Invalid_argument _ -> ()
  in
  refused "empty bounds" (fun () -> Counters.histogram cs "e" ~buckets:[||]);
  refused "non-increasing bounds" (fun () -> Counters.histogram cs "d" ~buckets:[| 2.0; 2.0 |]);
  refused "other bounds, same name" (fun () ->
      Counters.histogram cs "per_round" ~buckets:[| 1.0; 10.0 |])

(* counters add, histograms add cell by cell, new names are created *)
let test_merge_into () =
  let dst = Counters.create () and src = Counters.create () in
  Counters.add (Counters.counter dst "a") 2;
  Counters.add (Counters.counter src "a") 3;
  Counters.add (Counters.counter src "b") 7;
  let bounds = [| 1.0; 2.0 |] in
  Counters.observe (Counters.histogram dst "h" ~buckets:bounds) 0.0;
  Counters.observe (Counters.histogram src "h" ~buckets:bounds) 0.0;
  Counters.observe (Counters.histogram src "h" ~buckets:bounds) 5.0;
  Counters.merge_into ~dst ~src;
  Alcotest.(check int) "a adds" 5 (Counters.value (Counters.counter dst "a"));
  Alcotest.(check int) "b created" 7 (Counters.value (Counters.counter dst "b"));
  Alcotest.(check (array int)) "h adds" [| 2; 0; 1 |]
    (Counters.bucket_counts (Counters.histogram dst "h" ~buckets:bounds));
  Alcotest.(check int) "src keeps its values" 3 (Counters.value (Counters.counter src "a"));
  let other = Counters.create () in
  ignore (Counters.histogram other "h" ~buckets:[| 3.0 |]);
  match Counters.merge_into ~dst ~src:other with
  | () -> Alcotest.fail "mismatched histogram bounds merged"
  | exception Invalid_argument _ -> ()

let test_counters_json_roundtrip () =
  let cs = Counters.create () in
  Counters.add (Counters.counter cs "rounds") 12;
  Counters.add (Counters.counter cs "contacts") 345;
  Counters.observe (Counters.histogram cs "per_round" ~buckets:[| 1.0; 10.0 |]) 4.0;
  let text = Json.to_string_json (Counters.to_json cs) in
  Alcotest.(check string) "names sorted"
    {|{"counters":{"contacts":345,"rounds":12},"histograms":{"per_round":{"bounds":[1,10],"counts":[0,1,0]}}}|}
    text;
  match Counters.of_json (Json.parse text) with
  | Error msg -> Alcotest.fail msg
  | Ok back ->
      Alcotest.(check string) "fixpoint" text (Json.to_string_json (Counters.to_json back))

(* --- spans around failures and worker tracers ------------------------- *)

let test_with_span_exceptions () =
  let t = Trace.create () in
  (match Trace.with_span (Some t) "failing" (fun () -> failwith "boom") with
  | () -> Alcotest.fail "exception swallowed"
  | exception Failure _ -> ());
  Alcotest.(check int) "span closed" 0 (Trace.open_spans t);
  Alcotest.(check int) "span recorded" 1 (Trace.events t);
  Alcotest.(check int) "no tracer: just runs" 42 (Trace.with_span None "bare" (fun () -> 42))

(* join appends the child's events and folds its counters in, once the
   child is balanced *)
let test_fork_join () =
  let parent = Trace.create () in
  Counters.add (Counters.counter (Trace.counters parent) "contacts") 1;
  let child = Trace.fork parent ~tid:5 in
  Alcotest.(check int) "child tid" 5 (Trace.tid child);
  Alcotest.(check int) "child starts empty" 0 (Trace.events child);
  Trace.begin_span child "work";
  Alcotest.check_raises "open child refused"
    (Invalid_argument "Trace.join: child has open spans") (fun () -> Trace.join parent child);
  Trace.end_span child;
  Trace.instant child "mark";
  Counters.add (Counters.counter (Trace.counters child) "contacts") 9;
  Trace.join parent child;
  Alcotest.(check int) "events appended" 2 (Trace.events parent);
  Alcotest.(check int) "counters folded" 10
    (Counters.value (Counters.counter (Trace.counters parent) "contacts"))

let suite =
  [
    Alcotest.test_case "nesting balance" `Quick test_nesting_balance;
    Alcotest.test_case "export refuses open spans" `Quick
      test_export_refuses_open_spans;
    Alcotest.test_case "chrome document parses" `Quick test_chrome_json_parses;
    Alcotest.test_case "read_file round-trips both formats" `Quick
      test_read_file_roundtrip;
    Alcotest.test_case "worker tids stable" `Quick test_worker_tids_stable;
    Alcotest.test_case "sequential per-item spans" `Quick
      test_sequential_item_spans;
    Alcotest.test_case "rumor_report trace exit codes" `Quick
      test_report_trace_exit_codes;
    Alcotest.test_case "rumor_run --trace: rep and round spans" `Quick
      test_rumor_run_trace;
    Alcotest.test_case "counters found by name, monotonic" `Quick test_counter_by_name;
    Alcotest.test_case "histogram buckets and bounds" `Quick test_histogram_buckets;
    Alcotest.test_case "counters merge_into" `Quick test_merge_into;
    Alcotest.test_case "counters JSON round trip" `Quick test_counters_json_roundtrip;
    Alcotest.test_case "with_span closes on exceptions" `Quick test_with_span_exceptions;
    Alcotest.test_case "fork and join" `Quick test_fork_join;
  ]
