module Stats = Rumor_prob.Stats

type tolerances = {
  broadcast : float;
  contacts : float;
  wall : float;
  alloc : float;
}

let default_tolerances =
  { broadcast = 0.10; contacts = 0.10; wall = 0.50; alloc = 0.15 }

let uniform tol = { broadcast = tol; contacts = tol; wall = tol; alloc = tol }

type status = Pass | Regressed | Improved

type check = {
  graph : string;
  protocol : string;
  metric : string;
  baseline_mean : float;
  current_mean : float;
  ratio : float;
  tolerance : float;
  status : status;
}

type report = {
  checks : check list;
  missing : (string * string) list;
  added : (string * string) list;
}

let classify ~tolerance ~baseline ~current =
  if Float.equal baseline current then Pass
  else if Float.equal baseline 0.0 then
    Regressed (* a cost appeared out of nothing *)
  else if current > baseline *. (1.0 +. tolerance) then Regressed
  else if current < baseline *. (1.0 -. tolerance) then Improved
  else Pass

let check_metric ~(g : Aggregate.group) ~metric ~tolerance ~baseline ~current =
  {
    graph = g.Aggregate.graph;
    protocol = g.Aggregate.protocol;
    metric;
    baseline_mean = baseline;
    current_mean = current;
    ratio =
      (if Float.equal baseline 0.0 then
         if Float.equal current 0.0 then 1.0 else infinity
       else current /. baseline);
    tolerance;
    status = classify ~tolerance ~baseline ~current;
  }

let check ?(tol = default_tolerances) ~baseline ~current () =
  let checks = ref [] and missing = ref [] in
  List.iter
    (fun (b : Aggregate.group) ->
      match
        Aggregate.find current ~graph:b.Aggregate.graph
          ~protocol:b.Aggregate.protocol
      with
      | None -> missing := (b.Aggregate.graph, b.Aggregate.protocol) :: !missing
      | Some c ->
          let mean (m : Aggregate.metric) = m.Aggregate.summary.Stats.mean in
          let one metric tolerance bm cm =
            checks :=
              check_metric ~g:b ~metric ~tolerance ~baseline:(mean bm)
                ~current:(mean cm)
              :: !checks
          in
          one "broadcast" tol.broadcast b.Aggregate.broadcast c.Aggregate.broadcast;
          one "contacts" tol.contacts b.Aggregate.contacts c.Aggregate.contacts;
          one "wall_seconds" tol.wall b.Aggregate.wall_seconds
            c.Aggregate.wall_seconds;
          one "alloc_words" tol.alloc b.Aggregate.alloc_words
            c.Aggregate.alloc_words)
    baseline;
  let added =
    List.filter_map
      (fun (c : Aggregate.group) ->
        match
          Aggregate.find baseline ~graph:c.Aggregate.graph
            ~protocol:c.Aggregate.protocol
        with
        | None -> Some (c.Aggregate.graph, c.Aggregate.protocol)
        | Some _ -> None)
      current
  in
  { checks = List.rev !checks; missing = List.rev !missing; added }

let regressions report =
  List.filter (fun c -> c.status = Regressed) report.checks

let passed report =
  List.is_empty (regressions report) && List.is_empty report.missing

(* --- snapshot persistence --------------------------------------------- *)

let schema = "rumor-baseline/1"

let json_of_metric (m : Aggregate.metric) =
  let s = m.Aggregate.summary in
  Json.Obj
    [
      ("n", Json.Int s.Stats.n);
      ("mean", Json.Float s.Stats.mean);
      ("stddev", Json.Float s.Stats.stddev);
      ("min", Json.Float s.Stats.min);
      ("q25", Json.Float s.Stats.q25);
      ("median", Json.Float s.Stats.median);
      ("q75", Json.Float s.Stats.q75);
      ("max", Json.Float s.Stats.max);
      ("p90", Json.Float m.Aggregate.p90);
      ("p99", Json.Float m.Aggregate.p99);
    ]

let json_of_group (g : Aggregate.group) =
  Json.Obj
    [
      ("graph", Json.String g.Aggregate.graph);
      ("protocol", Json.String g.Aggregate.protocol);
      ("runs", Json.Int g.Aggregate.runs);
      ("capped", Json.Int g.Aggregate.capped);
      ("vertices", Json.Int g.Aggregate.vertices);
      ("broadcast", json_of_metric g.Aggregate.broadcast);
      ("contacts", json_of_metric g.Aggregate.contacts);
      ("wall_seconds", json_of_metric g.Aggregate.wall_seconds);
      ("alloc_words", json_of_metric g.Aggregate.alloc_words);
    ]

let to_json agg =
  Json.to_string_json
    (Json.Obj
       [
         ("schema", Json.String schema);
         ("groups", Json.List (List.map json_of_group agg));
       ])

let ( let* ) r f = Result.bind r f

let field where name conv =
  match Json.member name where with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let metric_of_json j =
  let* n = field j "n" Json.to_int in
  let* mean = field j "mean" Json.to_float in
  let* stddev = field j "stddev" Json.to_float in
  let* min = field j "min" Json.to_float in
  let* q25 = field j "q25" Json.to_float in
  let* median = field j "median" Json.to_float in
  let* q75 = field j "q75" Json.to_float in
  let* max = field j "max" Json.to_float in
  let* p90 = field j "p90" Json.to_float in
  let* p99 = field j "p99" Json.to_float in
  Ok
    {
      Aggregate.summary = { Stats.n; mean; stddev; min; q25; median; q75; max };
      p90;
      p99;
    }

let group_of_json j =
  let* graph = field j "graph" Json.to_string in
  let* protocol = field j "protocol" Json.to_string in
  let* runs = field j "runs" Json.to_int in
  let* capped = field j "capped" Json.to_int in
  let* vertices = field j "vertices" Json.to_int in
  let metric name = Result.bind (field j name (fun v -> Some v)) metric_of_json in
  let* broadcast = metric "broadcast" in
  let* contacts = metric "contacts" in
  let* wall_seconds = metric "wall_seconds" in
  let* alloc_words = metric "alloc_words" in
  Ok
    {
      Aggregate.graph;
      protocol;
      runs;
      capped;
      vertices;
      broadcast;
      contacts;
      wall_seconds;
      alloc_words;
      mean_curve = [||];
    }

let of_json text =
  let* j = Json.parse_result text in
  let* () =
    match Json.member "schema" j with
    | Some (Json.String s) when s = schema -> Ok ()
    | Some (Json.String s) ->
        Error (Printf.sprintf "unsupported schema %S (want %S)" s schema)
    | _ -> Error "not a baseline snapshot (no \"schema\" field)"
  in
  let* groups = field j "groups" Json.to_list in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | g :: rest -> (
        match group_of_json g with
        | Ok group -> go (group :: acc) rest
        | Error msg ->
            Error (Printf.sprintf "group %d: %s" (List.length acc) msg))
  in
  go [] groups

let save path agg =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_json agg);
      output_char oc '\n')
