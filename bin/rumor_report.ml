(* rumor_report: the read side of the metrics pipeline.

   Examples:
     rumor_run --graph star:1000 -p push --reps 20 --metrics m.jsonl
     rumor_report summary m.jsonl
     rumor_report baseline m.jsonl --out BENCH_baseline.json
     rumor_report check new.jsonl --baseline BENCH_baseline.json --tolerance 25
     rumor_report compare old.jsonl new.jsonl *)

open Cmdliner
module Run_record = Rumor_obs.Run_record
module Aggregate = Rumor_obs.Aggregate
module Baseline = Rumor_obs.Baseline
module Json = Rumor_obs.Json
module Table = Rumor_sim.Table
module Sparkline = Rumor_sim.Sparkline
module Curve_stats = Rumor_sim.Curve_stats
module Stats = Rumor_prob.Stats

exception Fail of string

let failf fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

(* ------------------------------------------------------------------ *)
(* Input detection: a metrics file is either JSONL run records or a    *)
(* baseline snapshot; either way it is read as an aggregate.            *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> text
  | exception Sys_error msg -> failf "%s" msg

let load_aggregate path =
  let text = read_file path in
  match Json.parse_result (String.trim text) with
  | Ok j -> (
      (* the whole file is one JSON value: a baseline snapshot, or a
         single-record JSONL file *)
      match Json.member "schema" j with
      | Some (Json.String "rumor-baseline/1") -> (
          match Baseline.of_json text with
          | Ok a -> a
          | Error msg -> failf "%s" msg)
      | Some (Json.String other) -> failf "%s: unsupported schema %S" path other
      | _ -> (
          match Run_record.of_json (String.trim text) with
          | Ok r -> Aggregate.of_records [ r ]
          | Error msg -> failf "%s: %s" path msg))
  | Error _ -> (
      (* multiple lines: JSONL *)
      match Run_record.read_jsonl path with
      | [] -> failf "%s: no records" path
      | records -> Aggregate.of_records records
      | exception Run_record.Jsonl_error { path; line; msg } ->
          failf "%s:%d: %s" path line msg)

(* ------------------------------------------------------------------ *)
(* Formatting helpers                                                   *)
(* ------------------------------------------------------------------ *)

let fmt_ns t =
  if t >= 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
  else if t >= 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
  else if t >= 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
  else Printf.sprintf "%.1f ns" t

let fmt_ratio r =
  if r = infinity then "inf" else Printf.sprintf "%.3fx" r

let fmt_words w =
  if Float.abs w >= 1e6 then Printf.sprintf "%.2fMw" (w /. 1e6)
  else if Float.abs w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let status_string = function
  | Baseline.Pass -> "ok"
  | Baseline.Regressed -> "REGRESSED"
  | Baseline.Improved -> "improved"

let tolerances_of_pct = function
  | None -> Baseline.default_tolerances
  | Some pct ->
      if not (Float.is_finite pct && pct >= 0.0) then
        failf "--tolerance must be finite and non-negative"
      else Baseline.uniform (pct /. 100.0)

let print_check_report report =
  let rows =
    List.map
      (fun (c : Baseline.check) ->
        [
          c.Baseline.graph;
          c.Baseline.protocol;
          c.Baseline.metric;
          Printf.sprintf "%.4g" c.Baseline.baseline_mean;
          Printf.sprintf "%.4g" c.Baseline.current_mean;
          fmt_ratio c.Baseline.ratio;
          Printf.sprintf "%.0f%%" (100.0 *. c.Baseline.tolerance);
          status_string c.Baseline.status;
        ])
      report.Baseline.checks
  in
  Table.print
    (Table.make ~title:"regression check" ~claim:""
       ~aligns:[ Table.Left; Table.Left; Table.Left ]
       ~header:
         [ "graph"; "protocol"; "metric"; "baseline"; "current"; "ratio";
           "tol"; "status" ]
       rows);
  List.iter
    (fun (g, p) -> Printf.printf "MISSING: %s/%s present in baseline, absent now\n" g p)
    report.Baseline.missing;
  List.iter
    (fun (g, p) -> Printf.printf "new (no baseline): %s/%s\n" g p)
    report.Baseline.added;
  let regressed = List.length (Baseline.regressions report) in
  Printf.printf "\n%d metric(s) regressed, %d group(s) missing — %s\n" regressed
    (List.length report.Baseline.missing)
    (if Baseline.passed report then "PASS" else "FAIL")

(* ------------------------------------------------------------------ *)
(* summary                                                              *)
(* ------------------------------------------------------------------ *)

let summary path ascii width =
  let agg = load_aggregate path in
  let rows =
    List.map
      (fun (g : Aggregate.group) ->
        let b = g.Aggregate.broadcast in
        let s = b.Aggregate.summary in
        [
          g.Aggregate.graph;
          g.Aggregate.protocol;
          string_of_int g.Aggregate.runs;
          string_of_int g.Aggregate.capped;
          Printf.sprintf "%.1f" s.Stats.mean;
          Printf.sprintf "%.1f" s.Stats.median;
          Printf.sprintf "%.1f" b.Aggregate.p90;
          Printf.sprintf "%.1f" b.Aggregate.p99;
          Printf.sprintf "%.3g"
            g.Aggregate.contacts.Aggregate.summary.Stats.mean;
          Printf.sprintf "%.2f"
            (1000.0 *. g.Aggregate.wall_seconds.Aggregate.summary.Stats.mean);
          fmt_words g.Aggregate.alloc_words.Aggregate.summary.Stats.mean;
        ])
      agg
  in
  Table.print
    (Table.make
       ~title:(Printf.sprintf "per-(graph, protocol) summary of %s" path)
       ~claim:""
       ~aligns:[ Table.Left; Table.Left ]
       ~header:
         [ "graph"; "protocol"; "runs"; "capped"; "bt mean"; "bt med";
           "bt p90"; "bt p99"; "contacts"; "wall ms"; "alloc" ]
       rows);
  let with_curves =
    List.filter
      (fun (g : Aggregate.group) -> Array.length g.Aggregate.mean_curve > 0)
      agg
  in
  if not (List.is_empty with_curves) then begin
    Printf.printf "\nmean informed-count curves:\n";
    let label_width =
      List.fold_left
        (fun m (g : Aggregate.group) ->
          max m
            (String.length g.Aggregate.graph
            + String.length g.Aggregate.protocol + 1))
        0 with_curves
    in
    List.iter
      (fun (g : Aggregate.group) ->
        let label = g.Aggregate.graph ^ "/" ^ g.Aggregate.protocol in
        let curve = g.Aggregate.mean_curve in
        let int_curve = Array.map int_of_float curve in
        let half =
          Curve_stats.time_to_fraction_curve
            ~completed:(g.Aggregate.capped < g.Aggregate.runs)
            int_curve 0.5
        in
        Printf.printf "  %-*s %s%s\n" label_width label
          (Sparkline.render ~width ~ascii curve)
          (match half with
          | Some h -> Printf.sprintf "  (50%% at round %d)" h
          | None -> ""))
      with_curves
  end;
  0

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

let compare_files old_path new_path tolerance_pct =
  let tol = tolerances_of_pct tolerance_pct in
  let baseline = load_aggregate old_path in
  let current = load_aggregate new_path in
  let report = Baseline.check ~tol ~baseline ~current () in
  print_check_report report;
  (* compare is informational: only malformed input exits nonzero *)
  0

(* ------------------------------------------------------------------ *)
(* check / baseline                                                     *)
(* ------------------------------------------------------------------ *)

let check path baseline_path tolerance_pct =
  let tol = tolerances_of_pct tolerance_pct in
  let baseline = load_aggregate baseline_path in
  let current = load_aggregate path in
  let report = Baseline.check ~tol ~baseline ~current () in
  print_check_report report;
  if Baseline.passed report then 0 else 1

let make_baseline path out =
  let agg = load_aggregate path in
  Baseline.save out agg;
  Printf.printf "wrote baseline of %d group(s) to %s\n" (List.length agg) out;
  0

(* ------------------------------------------------------------------ *)
(* trace: self-time profile of a recorded execution trace              *)
(* ------------------------------------------------------------------ *)

module Trace = Rumor_obs.Trace
module Counters = Rumor_obs.Counters

(* Self time is a span's duration minus its direct children's durations.
   Spans on one track, sorted by start time (ties: outermost — longest —
   first), nest properly, so a stack sweep finds each span's parent: pop
   finished spans, and whatever remains on top when a span starts is the
   span that contains it. *)
type span_acc = { ev : Trace.event; mutable self_us : float }

let self_times spans =
  let recs =
    Array.of_list
      (List.map (fun e -> { ev = e; self_us = e.Trace.dur_us }) spans)
  in
  Array.sort
    (fun a b ->
      match Int.compare a.ev.Trace.tid b.ev.Trace.tid with
      | 0 -> (
          match Float.compare a.ev.Trace.ts_us b.ev.Trace.ts_us with
          | 0 -> Float.compare b.ev.Trace.dur_us a.ev.Trace.dur_us
          | c -> c)
      | c -> c)
    recs;
  let ends r = r.ev.Trace.ts_us +. r.ev.Trace.dur_us in
  let stack = ref [] in
  let track = ref min_int in
  Array.iter
    (fun r ->
      if r.ev.Trace.tid <> !track then begin
        stack := [];
        track := r.ev.Trace.tid
      end;
      let rec pop () =
        match !stack with
        | top :: rest when ends top < ends r ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | parent :: _ -> parent.self_us <- parent.self_us -. r.ev.Trace.dur_us
      | [] -> ());
      stack := r :: !stack)
    recs;
  recs

type prof = {
  mutable count : int;
  mutable total_us : float;
  mutable self_total_us : float;
  mutable alloc_w : float;
  mutable majors : int;
  mutable durs : float list;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let fmt_us us = fmt_ns (1e3 *. us)

let print_trace_counters cs =
  if not (Counters.is_empty cs) then begin
    let j = Counters.to_json cs in
    (match Json.member "counters" j with
    | Some (Json.Obj ((_ :: _) as kvs)) ->
        Printf.printf "\ncounters:\n";
        List.iter
          (fun (name, v) ->
            match Json.to_int v with
            | Some v -> Printf.printf "  %-24s %d\n" name v
            | None -> ())
          kvs
    | _ -> ());
    match Json.member "histograms" j with
    | Some (Json.Obj ((_ :: _) as kvs)) ->
        Printf.printf "histograms:\n";
        List.iter
          (fun (name, h) ->
            let floats m =
              match Json.member m h with
              | Some (Json.List l) -> List.filter_map Json.to_float l
              | _ -> []
            in
            let bounds = floats "bounds" and counts = floats "counts" in
            Printf.printf "  %s: " name;
            List.iteri
              (fun i c ->
                let label =
                  match List.nth_opt bounds i with
                  | Some b -> Printf.sprintf "<=%g" b
                  | None -> "over"
                in
                Printf.printf "%s%s:%g" (if i = 0 then "" else " ") label c)
              counts;
            print_newline ())
          kvs
    | _ -> ()
  end

let trace_profile path top =
  let { Trace.file_events; file_counters } =
    match Trace.read_file path with Ok f -> f | Error msg -> failf "%s" msg
  in
  let spans =
    List.filter (fun e -> e.Trace.ph = `Span) file_events
  in
  if List.is_empty spans then begin
    Printf.printf "%s: no spans recorded\n" path;
    print_trace_counters file_counters;
    0
  end
  else begin
    let recs = self_times spans in
    let wall =
      Array.fold_left
        (fun acc r -> Float.max acc (r.ev.Trace.ts_us +. r.ev.Trace.dur_us))
        0.0 recs
    in
    let tids =
      List.sort_uniq Int.compare (List.map (fun e -> e.Trace.tid) spans)
    in
    let by_name : (string, prof) Hashtbl.t = Hashtbl.create 32 in
    Array.iter
      (fun r ->
        let e = r.ev in
        let p =
          match Hashtbl.find_opt by_name e.Trace.name with
          | Some p -> p
          | None ->
              let p =
                {
                  count = 0;
                  total_us = 0.0;
                  self_total_us = 0.0;
                  alloc_w = 0.0;
                  majors = 0;
                  durs = [];
                }
              in
              Hashtbl.add by_name e.Trace.name p;
              p
        in
        p.count <- p.count + 1;
        p.total_us <- p.total_us +. e.Trace.dur_us;
        p.self_total_us <- p.self_total_us +. r.self_us;
        p.alloc_w <- p.alloc_w +. e.Trace.alloc_w;
        p.majors <- p.majors + e.Trace.major_gcs;
        p.durs <- e.Trace.dur_us :: p.durs)
      recs;
    let profs =
      Hashtbl.fold (fun name p acc -> (name, p) :: acc) by_name []
      |> List.sort (fun (_, a) (_, b) ->
             Float.compare b.self_total_us a.self_total_us)
    in
    let total_self =
      List.fold_left (fun acc (_, p) -> acc +. p.self_total_us) 0.0 profs
    in
    let rows =
      List.filteri (fun i _ -> i < top) profs
      |> List.map (fun (name, p) ->
             let sorted = Array.of_list p.durs in
             Array.sort Float.compare sorted;
             [
               name;
               string_of_int p.count;
               fmt_us p.total_us;
               fmt_us p.self_total_us;
               (if total_self > 0.0 then
                  Printf.sprintf "%.1f%%" (100.0 *. p.self_total_us /. total_self)
                else "-");
               fmt_us (percentile sorted 0.50);
               fmt_us (percentile sorted 0.99);
               fmt_words p.alloc_w;
               string_of_int p.majors;
             ])
    in
    Table.print
      (Table.make
         ~title:
           (Printf.sprintf "span profile of %s (wall %s, %d span(s), %d track(s))"
              path (fmt_us wall) (List.length spans) (List.length tids))
         ~claim:"" ~aligns:[ Table.Left ]
         ~header:
           [ "span"; "count"; "total"; "self"; "self%"; "p50"; "p99"; "alloc";
             "majGC" ]
         rows);
    if List.length profs > top then
      Printf.printf "(%d more span name(s); --top to widen)\n"
        (List.length profs - top);
    print_trace_counters file_counters;
    0
  end

(* ------------------------------------------------------------------ *)
(* Cmdliner plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let handle f = try f () with Fail msg -> prerr_endline ("rumor_report: " ^ msg); 2

let file_pos ~docv n =
  Arg.(required & pos n (some string) None & info [] ~docv)

let tolerance_arg =
  let doc =
    "Uniform relative tolerance in percent for every metric (overrides the \
     per-metric defaults: broadcast/contacts 10%, wall-clock 50%, \
     allocation 15%)."
  in
  Arg.(value & opt (some float) None & info [ "tolerance" ] ~docv:"PCT" ~doc)

let summary_cmd =
  let doc = "per-(graph, protocol) summary table of a metrics file" in
  let ascii =
    Arg.(value & flag & info [ "ascii" ] ~doc:"ASCII sparklines (no Unicode).")
  in
  let width =
    Arg.(value & opt int 50 & info [ "width" ] ~docv:"N" ~doc:"Sparkline width.")
  in
  Cmd.v
    (Cmd.info "summary" ~doc)
    Term.(
      const (fun path ascii width -> handle (fun () -> summary path ascii width))
      $ file_pos ~docv:"FILE.jsonl" 0 $ ascii $ width)

let compare_cmd =
  let doc = "diff two metrics files (JSONL runs or baseline snapshots)" in
  Cmd.v
    (Cmd.info "compare" ~doc)
    Term.(
      const (fun old_path new_path tol ->
          handle (fun () -> compare_files old_path new_path tol))
      $ file_pos ~docv:"OLD" 0 $ file_pos ~docv:"NEW" 1 $ tolerance_arg)

let check_cmd =
  let doc =
    "gate a metrics file against a baseline snapshot; exits 1 on regression"
  in
  let baseline_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE.json"
          ~doc:"Baseline snapshot written by $(b,rumor_report baseline).")
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const (fun path b tol -> handle (fun () -> check path b tol))
      $ file_pos ~docv:"FILE.jsonl" 0 $ baseline_arg $ tolerance_arg)

let baseline_cmd =
  let doc = "snapshot a metrics file's aggregate as a baseline" in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_baseline.json"
      & info [ "o"; "out" ] ~docv:"FILE.json" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "baseline" ~doc)
    Term.(
      const (fun path out -> handle (fun () -> make_baseline path out))
      $ file_pos ~docv:"FILE.jsonl" 0 $ out_arg)

let trace_cmd =
  let doc =
    "self-time profile of a --trace file (Chrome JSON or rumor-trace/1 JSONL)"
  in
  let top_arg =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"Show the N hottest span names.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const (fun path top -> handle (fun () -> trace_profile path top))
      $ file_pos ~docv:"TRACE" 0 $ top_arg)

let cmd =
  let doc = "analyze recorded rumor-spreading metrics" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Consumes the JSONL files written by the $(b,--metrics) flag of \
         rumor_run and rumor_experiments: groups records by \
         (graph, protocol), reports mean/median/p90/p99, and gates new runs \
         against saved baselines.";
      `S Manpage.s_examples;
      `Pre
        "  rumor_run -g star:1000 -p push --reps 20 --metrics m.jsonl\n\
        \  rumor_report summary m.jsonl\n\
        \  rumor_report baseline m.jsonl -o BENCH_baseline.json\n\
        \  rumor_report check new.jsonl --baseline BENCH_baseline.json \
         --tolerance 25";
    ]
  in
  Cmd.group
    (Cmd.info "rumor_report" ~version:"1.0.0" ~doc ~man)
    [ summary_cmd; compare_cmd; check_cmd; baseline_cmd; trace_cmd ]

let () = exit (Cmd.eval' cmd)
