(* Tests for Rumor_sim.Protocol: uniform dispatch. *)

module Rng = Rumor_prob.Rng
module Gen = Rumor_graph.Gen_basic
module Placement = Rumor_agents.Placement
module Protocol = Rumor_sim.Protocol
module Run_result = Rumor_protocols.Run_result

let test_names () =
  Alcotest.(check string) "push" "push" (Protocol.name Protocol.push);
  Alcotest.(check string) "push-pull" "push-pull" (Protocol.name Protocol.push_pull);
  Alcotest.(check string) "visitx" "visit-exchange"
    (Protocol.name (Protocol.visit_exchange ()));
  Alcotest.(check string) "meetx" "meet-exchange"
    (Protocol.name (Protocol.meet_exchange ()));
  Alcotest.(check string) "combined" "combined" (Protocol.name (Protocol.combined ()));
  Alcotest.(check string) "async-push" "async-push"
    (Protocol.name Protocol.async_push);
  Alcotest.(check string) "async-push-pull" "async-push-pull"
    (Protocol.name Protocol.async_push_pull);
  Alcotest.(check string) "async-meetx" "async-meet-exchange"
    (Protocol.name (Protocol.Async_meet_exchange { agents = Linear 1.0; laziness = Lazy_auto }))

(* the CLI's -p menu: every listed name parses back to a spec of that name,
   carrying the given agent law and laziness *)
let test_names_parse () =
  let agents = Placement.Linear 0.5 and laziness = Protocol.Lazy_on in
  Alcotest.(check int) "names are distinct" (List.length Protocol.names)
    (List.length (List.sort_uniq String.compare Protocol.names));
  List.iter
    (fun n ->
      match Protocol.of_name ~agents ~laziness n with
      | None -> Alcotest.failf "%s does not parse" n
      | Some spec -> (
          Alcotest.(check string) (n ^ " round-trips") n (Protocol.name spec);
          match spec with
          | Protocol.Visit_exchange { agents = a; laziness = l }
          | Meet_exchange { agents = a; laziness = l }
          | Combined { agents = a; laziness = l }
          | Async_meet_exchange { agents = a; laziness = l } ->
              Alcotest.(check bool) (n ^ " keeps agents and laziness") true
                (a = agents && l = laziness)
          | Push | Push_pull | Async_push | Async_push_pull -> ()))
    Protocol.names;
  Alcotest.(check bool) "unlisted name" true
    (Protocol.of_name ~agents ~laziness "pull" = None)

(* the sparse representation has no combined kernel: an explicit Sparse is
   refused instead of silently running dense walkers, while Auto (and the
   agent-based specs that do have a sparse kernel) still run *)
let test_combined_rejects_sparse () =
  let g = Gen.complete 16 in
  let run ?walkers spec =
    Protocol.run ?walkers spec (Rng.of_int 206) g ~source:0 ~max_rounds:100_000
  in
  (match run ~walkers:Protocol.Sparse (Protocol.combined ()) with
  | _ -> Alcotest.fail "combined accepted sparse walkers"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "combined with auto walkers completes" true
    (Run_result.completed (run ~walkers:Protocol.Auto (Protocol.combined ())));
  Alcotest.(check bool) "visit-exchange with sparse walkers completes" true
    (Run_result.completed (run ~walkers:Protocol.Sparse (Protocol.visit_exchange ())))

(* the CLI refuses the same combination up front, as a usage error; so
   are bad graph parameters and replicate counts, each reported on one
   line rather than as an escaped exception *)
let bin_exe name = Filename.concat (Filename.concat ".." "bin") name

let contains s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

(* exit code and stderr lines of [exe argv] *)
let run_cli exe argv =
  let err = Filename.temp_file "rumor_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command (bin_exe exe) argv ~stdout:"/dev/null"
             ~stderr:err)
      in
      let lines =
        In_channel.with_open_bin err In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      (code, lines))

let test_cli_rejects_sparse_combined () =
  let exit_code argv = fst (run_cli "rumor_run.exe" argv) in
  let walkers protocol w =
    [ "--graph"; "star:20"; "-p"; protocol; "--walkers"; w; "--reps"; "1" ]
  in
  Alcotest.(check int) "combined + sparse is a usage error" 124
    (exit_code (walkers "combined" "sparse"));
  Alcotest.(check int) "combined + auto runs" 0
    (exit_code (walkers "combined" "auto"));
  Alcotest.(check int) "visit-exchange + sparse runs" 0
    (exit_code (walkers "visit-exchange" "sparse"));
  let usage_error ?(naming = "") exe argv =
    let code, lines = run_cli exe argv in
    let label = String.concat " " (exe :: argv) in
    Alcotest.(check int) (label ^ " exits 124") 124 code;
    match lines with
    | [ line ] ->
        let prefix = Filename.chop_suffix exe ".exe" ^ ": " in
        Alcotest.(check bool) (label ^ " names the tool") true
          (String.starts_with ~prefix line);
        Alcotest.(check bool) (label ^ " is no internal error") false
          (String.starts_with ~prefix:(prefix ^ "internal error") line);
        Alcotest.(check bool) (label ^ " names " ^ naming) true (contains line naming)
    | _ -> Alcotest.failf "%s: want one stderr line, got %d" label
             (List.length lines)
  in
  usage_error "rumor_run.exe" [ "--graph"; "cycle:0" ];
  usage_error "rumor_run.exe" [ "--graph"; "random-regular:5,3" ];
  usage_error "rumor_run.exe" [ "--graph"; "star:20"; "--reps"; "0" ];
  usage_error "rumor_run.exe" [ "--graph"; "complete:8"; "--max-rounds=-3" ];
  List.iter
    (fun alpha ->
      usage_error "rumor_run.exe"
        [ "--graph"; "complete:8"; "-p"; "visit-exchange"; "--alpha=" ^ alpha ])
    [ "nan"; "inf"; "0"; "-1"; "1e30" ];
  (* agents need an edge to walk on; the vertex protocols just finish *)
  List.iter
    (fun p -> usage_error "rumor_run.exe" [ "--graph"; "path:1"; "-p"; p ])
    [ "visit-exchange"; "meet-exchange"; "combined"; "async-meet-exchange" ];
  List.iter
    (fun p ->
      Alcotest.(check int) (p ^ " on path:1 runs") 0
        (exit_code [ "--graph"; "path:1"; "-p"; p; "--reps"; "1" ]))
    [ "push"; "push-pull" ];
  usage_error "rumor_graphgen.exe" [ "--graph"; "cycle:0" ];
  (* one vertex past the 24-bit id limit is refused before anything is
     sized by n *)
  List.iter
    (fun exe -> usage_error ~naming:"16777216" exe [ "--graph"; "path:16777217" ])
    [ "rumor_run.exe"; "rumor_graphgen.exe" ]

(* a retired protocol, alias or experiment id is unknown to the CLIs: one
   stderr line that lists exactly the accepted names *)
let test_cli_unknown_names () =
  let check exe argv known =
    let code, lines = run_cli exe argv in
    let label = String.concat " " (exe :: argv) in
    Alcotest.(check int) (label ^ " exits 124") 124 code;
    match lines with
    | [ line ] ->
        let listed =
          match String.index_opt line '(' with
          | Some i when String.ends_with ~suffix:")" line ->
              let start = i + String.length "(known: " in
              String.sub line start (String.length line - start - 1)
              |> String.split_on_char ',' |> List.map String.trim
          | _ -> Alcotest.failf "%s: no known list in %S" label line
        in
        Alcotest.(check (list string)) (label ^ ": known list") known listed
    | _ -> Alcotest.failf "%s: want one stderr line, got %d" label
             (List.length lines)
  in
  List.iter
    (fun p -> check "rumor_run.exe" [ "--graph"; "star:20"; "-p"; p ] Protocol.names)
    [ "pull"; "frog"; "ppull" ];
  let ids =
    List.map
      (fun (e : Rumor_sim.Experiments.t) -> e.Rumor_sim.Experiments.id)
      Rumor_sim.Experiments.all
  in
  List.iter
    (fun id -> check "rumor_experiments.exe" [ id ] ids)
    [ "BOGUS"; "R3"; "A7" ];
  (* sparse walkers with E10 (named, or implied by giving no ids) are
     refused by run_all's up-front check, with one line: not by the
     combined kernel after E1 and E2 have run *)
  List.iter
    (fun argv ->
      let argv = "--walkers" :: "sparse" :: argv in
      let label = String.concat " " ("rumor_experiments.exe" :: argv) in
      let code, lines = run_cli "rumor_experiments.exe" argv in
      Alcotest.(check int) (label ^ " exits 124") 124 code;
      match lines with
      | [ line ] ->
          Alcotest.(check bool) (label ^ ": refused up front: " ^ line) true
            (String.starts_with
               ~prefix:"rumor_experiments: --walkers sparse cannot run E10" line)
      | _ -> Alcotest.failf "%s: want one stderr line, got %d" label (List.length lines))
    [ [ "E1"; "E2"; "E10" ]; [] ]

(* the success path of the same CLIs: rumor_graphgen --edges -o writes an
   edge list that reads back as the generated graph *)
let test_graphgen_writes_edge_list () =
  let out = Filename.temp_file "rumor_graphgen" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code, errs =
        run_cli "rumor_graphgen.exe" [ "--graph"; "cycle:7"; "--edges"; "-o"; out ]
      in
      Alcotest.(check int) "exits 0" 0 code;
      Alcotest.(check (list string)) "nothing on stderr" [] errs;
      Alcotest.(check string) "edge list of cycle:7"
        (Rumor_graph.Graph_io.to_edge_list (Gen.cycle 7))
        (In_channel.with_open_bin out In_channel.input_all))

(* --timing reports the graph's CSR payload as [Graph.csr_bytes] counts it:
   8 bytes per offset, 3 per neighbour slot and one pad byte *)
let test_graphgen_timing_csr_size () =
  let out = Filename.temp_file "rumor_graphgen" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Filename.quote_command (bin_exe "rumor_graphgen.exe")
             [ "--graph"; "complete:400"; "--timing"; "--edges"; "-o"; "/dev/null" ]
             ~stdout:out ~stderr:"/dev/null")
      in
      Alcotest.(check int) "exits 0" 0 code;
      let n = 400 and m = 400 * 399 / 2 in
      let want =
        Printf.sprintf "CSR %.1f MB," (float_of_int ((8 * (n + 1)) + (6 * m) + 1) /. 1e6)
      in
      let text = In_channel.with_open_bin out In_channel.input_all in
      if not (contains text want) then Alcotest.failf "want %S in %S" want text)

let test_dispatch_matches_direct_push () =
  let g = Gen.torus ~rows:5 ~cols:5 in
  let via_dispatch =
    Protocol.run Protocol.push (Rng.of_int 201) g ~source:0 ~max_rounds:10_000
  in
  let direct =
    Rumor_protocols.Engine.push (Rng.of_int 201) g ~source:0 ~max_rounds:10_000 ()
  in
  Alcotest.(check (option int)) "same result" direct.Run_result.broadcast_time
    via_dispatch.Run_result.broadcast_time

let test_all_protocols_complete () =
  let g = Gen.complete 16 in
  List.iter
    (fun spec ->
      let r = Protocol.run spec (Rng.of_int 202) g ~source:0 ~max_rounds:100_000 in
      Alcotest.(check bool) (Protocol.name spec ^ " completes") true
        (Run_result.completed r))
    [
      Protocol.push;
      Protocol.push_pull;
      Protocol.visit_exchange ();
      Protocol.meet_exchange ();
      Protocol.combined ();
      Protocol.async_push;
      Protocol.async_push_pull;
      Protocol.Async_meet_exchange { agents = Linear 1.0; laziness = Lazy_auto };
    ]

(* the async specs are the Async_engine DES kernels projected through
   to_run_result, with [max_rounds] read as the time horizon *)
let test_async_dispatch_matches_direct () =
  let g = Gen.torus ~rows:5 ~cols:5 in
  let module P = Rumor_protocols in
  List.iter
    (fun (spec, direct) ->
      let a = Protocol.run spec (Rng.of_int 205) g ~source:0 ~max_rounds:10_000 in
      let b = direct (Rng.of_int 205) in
      let label = Protocol.name spec in
      Alcotest.(check (option int))
        (label ^ ": broadcast_time") b.Run_result.broadcast_time
        a.Run_result.broadcast_time;
      Alcotest.(check (array int))
        (label ^ ": curve") b.Run_result.informed_curve
        a.Run_result.informed_curve;
      Alcotest.(check int) (label ^ ": contacts") b.Run_result.contacts
        a.Run_result.contacts)
    [
      ( Protocol.async_push,
        fun rng ->
          P.Async_push.to_run_result
            (P.Async_engine.push rng g ~variant:P.Async_push.Async_push ~source:0
               ~max_time:10_000.0) );
      ( Protocol.async_push_pull,
        fun rng ->
          P.Async_push.to_run_result
            (P.Async_engine.push rng g ~variant:P.Async_push.Async_push_pull
               ~source:0 ~max_time:10_000.0) );
      ( Protocol.Async_meet_exchange { agents = Linear 1.0; laziness = Lazy_auto },
        fun rng ->
          P.Async_meet_exchange.to_run_result
            (P.Async_engine.meet_exchange rng g ~source:0
               ~agents:(Placement.Linear 1.0) ~max_time:10_000.0) );
    ]

let test_lazy_auto_on_bipartite () =
  (* the star is bipartite: Lazy_auto must pick lazy walks and complete *)
  let g = Gen.star ~leaves:16 in
  let spec =
    Protocol.Meet_exchange { agents = Placement.Linear 1.0; laziness = Protocol.Lazy_auto }
  in
  let r = Protocol.run spec (Rng.of_int 203) g ~source:0 ~max_rounds:100_000 in
  Alcotest.(check bool) "completes via auto laziness" true (Run_result.completed r)

let test_lazy_off_on_bipartite_stalls () =
  let g = Gen.complete 2 in
  let spec =
    Protocol.Meet_exchange { agents = Placement.One_per_vertex; laziness = Protocol.Lazy_off }
  in
  let r = Protocol.run spec (Rng.of_int 204) g ~source:0 ~max_rounds:500 in
  Alcotest.(check (option int)) "stalls without laziness" None
    r.Run_result.broadcast_time

let test_alpha_scales_agent_count () =
  (* visit-exchange with alpha = 4 should be at least as fast on average as
     alpha = 0.25 on a clique; weak but deterministic-in-expectation check *)
  let g = Gen.complete 64 in
  let mean alpha =
    let total = ref 0 in
    for seed = 0 to 9 do
      let r =
        Protocol.run (Protocol.visit_exchange ~alpha ()) (Rng.of_int (2050 + seed)) g
          ~source:0 ~max_rounds:100_000
      in
      total := !total + Run_result.time_exn r
    done;
    float_of_int !total
  in
  Alcotest.(check bool) "denser agents no slower" true (mean 4.0 <= mean 0.25)

let suite =
  [
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "every listed name parses" `Quick test_names_parse;
    Alcotest.test_case "combined rejects sparse walkers" `Quick
      test_combined_rejects_sparse;
    Alcotest.test_case "rumor_run rejects sparse combined" `Quick
      test_cli_rejects_sparse_combined;
    Alcotest.test_case "CLIs reject unknown protocols and experiments" `Quick
      test_cli_unknown_names;
    Alcotest.test_case "rumor_graphgen --timing sizes the CSR" `Quick
      test_graphgen_timing_csr_size;
    Alcotest.test_case "rumor_graphgen writes an edge list" `Quick
      test_graphgen_writes_edge_list;
    Alcotest.test_case "dispatch matches direct call" `Quick test_dispatch_matches_direct_push;
    Alcotest.test_case "async dispatch matches direct call" `Quick
      test_async_dispatch_matches_direct;
    Alcotest.test_case "all protocols complete" `Quick test_all_protocols_complete;
    Alcotest.test_case "lazy auto on bipartite" `Quick test_lazy_auto_on_bipartite;
    Alcotest.test_case "lazy off stalls on bipartite" `Quick test_lazy_off_on_bipartite_stalls;
    Alcotest.test_case "alpha scales agents" `Quick test_alpha_scales_agent_count;
  ]
