(* Tests for Rumor_protocols.Engine beyond the golden digests
   (test_golden.ml): sparse walkers, allocation bounds, argument
   validation and what a traced run records. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Gen_random = Rumor_graph.Gen_random
module Placement = Rumor_agents.Placement
module P = Rumor_protocols
module Engine = Rumor_protocols.Engine
module Run_result = Rumor_protocols.Run_result
module Traffic = Rumor_protocols.Traffic
module Instrument = Rumor_obs.Instrument

let check_same_result label (a : Run_result.t) (b : Run_result.t) =
  Alcotest.(check (option int))
    (label ^ ": broadcast_time") a.Run_result.broadcast_time b.Run_result.broadcast_time;
  Alcotest.(check int) (label ^ ": rounds_run") a.Run_result.rounds_run
    b.Run_result.rounds_run;
  Alcotest.(check int) (label ^ ": contacts") a.Run_result.contacts b.Run_result.contacts;
  Alcotest.(check (array int))
    (label ^ ": informed_curve") a.Run_result.informed_curve b.Run_result.informed_curve;
  Alcotest.(check (option int))
    (label ^ ": all_agents_informed") a.Run_result.all_agents_informed
    b.Run_result.all_agents_informed

(* regular and not, bipartite and not, dense and sparse *)
let families () =
  [
    ("complete16", Gen.complete 16);
    ("torus6x6", Gen.torus ~rows:6 ~cols:6);
    ("path12", Gen.path 12);
    ("star9", Gen.star ~leaves:9);
    ("er40", Gen_random.erdos_renyi (Rng.of_int 4242) ~n:40 ~p:0.15);
    ("reg3x20", Gen_random.random_regular_connected (Rng.of_int 777) ~n:20 ~d:3);
  ]

let seeds = [ 1; 42; 9001 ]

(* ----------------------------------------------- sparse walker kernels *)

(* Sparse runs are not bit-identical to dense (A10 gates the distribution);
   here we check the exact invariants: completion, seed determinism, the
   occupancy hook, and the dense-only restrictions. *)

let sparse = Engine.visit_exchange ~walkers:P.Sparse_walkers.Sparse

let test_sparse_visit_exchange_completes () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let r =
            sparse (Rng.of_int seed) g ~source:0
              ~agents:(Placement.Stationary 12) ~max_rounds:100_000 ()
          in
          Alcotest.(check bool) (name ^ ": completed") true (Run_result.completed r);
          Alcotest.(check bool)
            (name ^ ": all agents informed")
            true
            (r.Run_result.all_agents_informed <> None);
          let curve = r.Run_result.informed_curve in
          Alcotest.(check int)
            (name ^ ": curve ends at n")
            (Graph.n g)
            curve.(Array.length curve - 1);
          (* seed-deterministic: the same run twice is identical *)
          let r2 =
            sparse (Rng.of_int seed) g ~source:0
              ~agents:(Placement.Stationary 12) ~max_rounds:100_000 ()
          in
          check_same_result (Printf.sprintf "sparse ve %s seed=%d" name seed) r r2)
        seeds)
    (families ())

let test_sparse_meet_exchange_completes () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let r =
            Engine.meet_exchange ~walkers:P.Sparse_walkers.Sparse
              (Rng.of_int seed) g ~source:0 ~agents:(Placement.Stationary 14)
              ~max_rounds:20_000 ()
          in
          Alcotest.(check bool)
            (Printf.sprintf "sparse me %s seed=%d: all informed" name seed)
            true
            (r.Run_result.all_agents_informed <> None);
          let r2 =
            Engine.meet_exchange ~walkers:P.Sparse_walkers.Sparse
              (Rng.of_int seed) g ~source:0 ~agents:(Placement.Stationary 14)
              ~max_rounds:20_000 ()
          in
          check_same_result (Printf.sprintf "sparse me %s seed=%d" name seed) r r2)
        seeds)
    (families ())

let test_sparse_occupancy_hook () =
  (* sparse walkers erase agent identity: they fire the aggregate occupancy
     hook and no per-agent on_contact/on_walker_move, so a Traffic.steps
     instrument sees nothing *)
  let g = Gen.torus ~rows:5 ~cols:5 in
  let agents = Placement.Stationary 30 in
  List.iter
    (fun (name, kernel) ->
      let rec_ = Instrument.Recorder.create () in
      let traffic = Traffic.create g in
      let (_ : Run_result.t) =
        kernel
          (Instrument.pair (Instrument.Recorder.instrument rec_)
             (Traffic.steps traffic))
      in
      Alcotest.(check bool) (name ^ ": occupancy events fired") true
        (Instrument.Recorder.occupancy_events rec_ > 0);
      (match Instrument.Recorder.last_occupied rec_ with
      | None -> Alcotest.fail (name ^ ": no occupancy recorded")
      | Some occ ->
          Alcotest.(check bool) (name ^ ": occupied in range") true
            (occ >= 1 && occ <= 25));
      Alcotest.(check int) (name ^ ": no walker moves") 0
        (Instrument.Recorder.walker_moves rec_);
      Alcotest.(check int) (name ^ ": no contacts") 0
        (Instrument.Recorder.contacts rec_);
      Alcotest.(check int) (name ^ ": no traffic") 0 (Traffic.total traffic))
    [
      ( "ve",
        fun obs ->
          sparse ~obs (Rng.of_int 3) g ~source:0 ~agents ~max_rounds:100_000 ()
      );
      ( "me",
        fun obs ->
          Engine.meet_exchange ~obs ~walkers:P.Sparse_walkers.Sparse
            (Rng.of_int 3) g ~source:0 ~agents ~max_rounds:100_000 () );
    ];
  (* dense kernels do not fire the aggregate hook *)
  let rec_d = Instrument.Recorder.create () in
  let (_ : Run_result.t) =
    Engine.visit_exchange
      ~obs:(Instrument.Recorder.instrument rec_d)
      (Rng.of_int 3) g ~source:0 ~agents ~max_rounds:100_000 ()
  in
  Alcotest.(check int) "dense fires none" 0
    (Instrument.Recorder.occupancy_events rec_d)

let test_walkers_auto_resolution () =
  (* below the threshold Auto is the dense path *)
  let g = Gen.complete 16 in
  let dense =
    Engine.visit_exchange ~lazy_walk:false (Rng.of_int 5) g ~source:0
      ~agents:(Placement.Stationary 12) ~max_rounds:100_000 ()
  in
  let auto =
    Engine.visit_exchange ~walkers:P.Sparse_walkers.Auto ~lazy_walk:false
      (Rng.of_int 5) g ~source:0 ~agents:(Placement.Stationary 12)
      ~max_rounds:100_000 ()
  in
  check_same_result "auto below threshold = dense" dense auto

(* ------------------------------------------------------ tau out-params *)

(* [tau] must be consistent with the curve: entry r of the informed curve
   counts the parties whose informing round is <= r *)
let check_tau_against_curve label tau (r : Run_result.t) =
  Alcotest.(check (option int))
    (label ^ ": broadcast time = max tau")
    r.Run_result.broadcast_time
    (Some (Array.fold_left max 0 tau));
  Array.iteri
    (fun round informed ->
      let by_round = Array.fold_left (fun c t -> if t <= round then c + 1 else c) 0 tau in
      Alcotest.(check int) (Printf.sprintf "%s: curve at round %d" label round) informed
        by_round)
    r.Run_result.informed_curve

let test_visit_exchange_tau () =
  List.iter
    (fun walkers ->
      List.iter
        (fun (name, g) ->
          let tau = Array.make (Graph.n g) (-1) in
          let r =
            Engine.visit_exchange ~walkers ~tau (Rng.of_int 3) g ~source:0
              ~agents:(Placement.Stationary 12) ~max_rounds:100_000 ()
          in
          let label = name ^ " " ^ P.Sparse_walkers.mode_to_string walkers in
          Alcotest.(check int) (label ^ ": source at round 0") 0 tau.(0);
          check_tau_against_curve label tau r)
        (families ()))
    [ P.Sparse_walkers.Dense; P.Sparse_walkers.Sparse ]

let test_meet_exchange_tau () =
  (* per-agent rounds, in placement order *)
  let g = Gen.torus ~rows:5 ~cols:5 in
  let agents = Placement.Stationary 14 in
  let tau = Array.make (Placement.count agents g) (-1) in
  let r =
    Engine.meet_exchange ~tau (Rng.of_int 21) g ~source:0 ~agents
      ~max_rounds:20_000 ()
  in
  check_tau_against_curve "torus5x5" tau r;
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "wrong length" true
    (bad (fun () ->
         Engine.meet_exchange ~tau:(Array.make 3 0) (Rng.of_int 21) g ~source:0
           ~agents ~max_rounds:10 ()));
  Alcotest.(check bool) "sparse has no agent identity" true
    (bad (fun () ->
         Engine.meet_exchange ~walkers:P.Sparse_walkers.Sparse ~tau (Rng.of_int 21)
           g ~source:0 ~agents ~max_rounds:10 ()))

(* -------------------------------------------- huge-cap allocation bound *)

let test_huge_cap_completes () =
  (* max_rounds = max_int must be safe: memory is O(rounds run), not O(cap) *)
  let g = Gen.path 40 in
  (* empty the minor heap first: the runtime counts the words a minor
     collection promotes as allocated, so one falling inside the interval
     would charge it with whatever earlier tests left live there *)
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = Engine.push (Rng.of_int 17) g ~source:0 ~max_rounds:max_int () in
  let r2 = Engine.push_pull (Rng.of_int 17) g ~source:0 ~max_rounds:max_int () in
  let allocated = Gc.allocated_bytes () -. before in
  let r_capped = Engine.push (Rng.of_int 17) g ~source:0 ~max_rounds:100_000 () in
  check_same_result "huge cap = ordinary cap" r_capped r;
  Alcotest.(check bool) "completed" true (Run_result.completed r);
  Alcotest.(check bool) "push-pull completed" true (Run_result.completed r2);
  (* two complete path-40 runs allocate well under a megabyte; an O(cap)
     curve would be ~70 TB here *)
  Alcotest.(check bool)
    (Printf.sprintf "allocation bounded (%.0f bytes)" allocated)
    true
    (allocated < 1_000_000.0)

let test_huge_cap_walkers () =
  let g = Gen.complete 8 in
  let r =
    Engine.meet_exchange (Rng.of_int 19) g ~source:0
      ~agents:(Placement.Stationary 6) ~max_rounds:max_int ()
  in
  Alcotest.(check bool) "completed" true (Run_result.completed r)

(* ----------------------------------------------------------- validation *)

let test_validation () =
  let g = Gen.complete 4 in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad source" true
    (bad (fun () -> Engine.push (Rng.of_int 1) g ~source:9 ~max_rounds:10 ()));
  Alcotest.(check bool) "negative cap" true
    (bad (fun () -> Engine.push_pull (Rng.of_int 1) g ~source:0 ~max_rounds:(-1) ()));
  Alcotest.(check bool) "short tau" true
    (bad (fun () ->
         Engine.push ~tau:(Array.make 2 0) (Rng.of_int 1) g ~source:0 ~max_rounds:10 ()))

(* ------------------------------------------------------------ curve buf *)

let test_curve_buf () =
  let b = P.Curve_buf.create ~hint:max_int in
  Alcotest.(check int) "empty" 0 (P.Curve_buf.length b);
  for i = 0 to 999 do
    P.Curve_buf.push b (i * i)
  done;
  Alcotest.(check int) "length" 1000 (P.Curve_buf.length b);
  let c = P.Curve_buf.contents b in
  Alcotest.(check int) "contents length" 1000 (Array.length c);
  Alcotest.(check int) "contents" (25 * 25) c.(25);
  Alcotest.(check int) "tiny hint ok" 0 (P.Curve_buf.length (P.Curve_buf.create ~hint:0))

(* ------------------------------------- disabled-trace fast path is free *)

let test_disabled_trace_allocation_free () =
  (* Two disjoint edges: from source 0 no kernel can reach {2, 3} (and no
     agent placed there ever learns the rumor), so every run is capped
     after exactly max_rounds rounds, and running two caps that differ by
     many rounds isolates the marginal allocation per round.  Minor-heap
     words are counted exactly (unlike [Gc.allocated_bytes], which nets
     out promotions and so depends on GC timing); the curve buffers this
     long outgrow the minor heap, so what is counted is the kernel's own
     per-round allocation, beyond its curve.  A random draw may allocate
     where the compiler does not inline it (boxed Int64 generator state),
     so each kernel is compared against a bare loop making the same
     neighbor draws per round: what remains is the
     kernel's own per-round overhead, which neither the disabled [?trace]
     plumbing nor the absent [?obs] buffers may grow — a with_span closure,
     [Some] cells at the trace sites or an event buffer allocated per round
     would each add at least 16 B. *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let minor_bytes f =
    let before = Gc.minor_words () in
    let r = f () in
    (r, 8.0 *. (Gc.minor_words () -. before))
  in
  let marginal run =
    ignore (run 16);
    (* warm-up pays one-time allocation *)
    let a1 = run 2_000 in
    let a2 = run 12_000 in
    (a2 -. a1) /. 10_000.0
  in
  let draws per_round =
    marginal (fun cap ->
        snd
          (minor_bytes (fun () ->
               let rng = Rng.of_int 5 in
               for _ = 1 to cap do
                 for u = 0 to per_round - 1 do
                   ignore (Sys.opaque_identity (Graph.random_neighbor g rng (u land 3)))
                 done
               done)))
  in
  (* agents one per vertex: 4 walkers, 2 of them stranded on {2, 3} *)
  let agents = Placement.One_per_vertex in
  let kernels =
    [
      ("push", 2, fun cap -> Engine.push (Rng.of_int 5) g ~source:0 ~max_rounds:cap ());
      ("push_pull", 4, fun cap ->
          Engine.push_pull (Rng.of_int 5) g ~source:0 ~max_rounds:cap ());
      ("visit_exchange", 4, fun cap ->
          Engine.visit_exchange (Rng.of_int 5) g ~source:0 ~agents ~max_rounds:cap ());
      ("meet_exchange", 4, fun cap ->
          Engine.meet_exchange ~lazy_walk:false (Rng.of_int 5) g ~source:0 ~agents
            ~max_rounds:cap ());
      ("combined", 8, fun cap ->
          Engine.combined (Rng.of_int 5) g ~source:0 ~agents ~max_rounds:cap ());
    ]
  in
  List.iter
    (fun (name, per_round, kernel) ->
      let kernel =
        marginal (fun cap ->
            let r, a = minor_bytes (fun () -> kernel cap) in
            Alcotest.(check bool) (name ^ ": run capped") false (Run_result.completed r);
            Alcotest.(check int) (name ^ ": rounds run") cap r.Run_result.rounds_run;
            a)
      in
      let draws = draws per_round in
      Alcotest.(check bool)
        (Printf.sprintf
           "%s per-round allocation overhead %.1f B (kernel %.1f, draws %.1f) < 16 B"
           name (kernel -. draws) kernel draws)
        true
        (kernel -. draws < 16.0))
    kernels

(* ------------------------------------------ obs-free path = recorded path *)

(* Every sync kernel keeps one loop, whose events go to a buffer only when
   an instrument is attached.  The golden digests always attach one, so
   this pins the other branch, the one the benchmarks time: with [?obs]
   absent each kernel must return the same result, and fill the same
   [tau], as with a recording instrument. *)
let test_obs_free_equals_recorded () =
  let recorder () = Instrument.Recorder.(instrument (create ())) in
  List.iter
    (fun (fname, g) ->
      let n = Graph.n g in
      List.iter
        (fun seed ->
          let label k = Printf.sprintf "%s %s seed=%d" k fname seed in
          let same k ~free ~recorded = check_same_result (label k) recorded free in
          let same_tau k a b = Alcotest.(check (array int)) (label k ^ ": tau") b a in
          (* push, with and without tau *)
          let tau_free = Array.make n 0 and tau_rec = Array.make n 0 in
          let push ?obs ?tau () =
            Engine.push ?obs ?tau (Rng.of_int seed) g ~source:0 ~max_rounds:100_000 ()
          in
          let recorded = push ~obs:(recorder ()) ~tau:tau_rec () in
          same "push" ~free:(push ~tau:tau_free ()) ~recorded;
          same "push without tau" ~free:(push ()) ~recorded;
          same_tau "push" tau_free tau_rec;
          let push_pull ?obs () =
            Engine.push_pull ?obs (Rng.of_int seed) g ~source:0 ~max_rounds:100_000 ()
          in
          same "push_pull" ~free:(push_pull ()) ~recorded:(push_pull ~obs:(recorder ()) ());
          List.iter
            (fun (aname, agents) ->
              List.iter
                (fun lazy_walk ->
                  let k kernel = Printf.sprintf "%s %s lazy=%b" kernel aname lazy_walk in
                  let visit ?obs tau =
                    Engine.visit_exchange ?obs ~tau ~lazy_walk (Rng.of_int seed) g ~source:0
                      ~agents ~max_rounds:100_000 ()
                  in
                  let tau_free = Array.make n 0 and tau_rec = Array.make n 0 in
                  same (k "visit_exchange") ~free:(visit tau_free)
                    ~recorded:(visit ~obs:(recorder ()) tau_rec);
                  same_tau (k "visit_exchange") tau_free tau_rec;
                  let combined ?obs () =
                    Engine.combined ?obs ~lazy_walk (Rng.of_int seed) g ~source:0 ~agents
                      ~max_rounds:100_000 ()
                  in
                  same (k "combined") ~free:(combined ())
                    ~recorded:(combined ~obs:(recorder ()) ()))
                [ false; true ])
            [ ("stationary12", Placement.Stationary 12);
              ("one-per-vertex", Placement.One_per_vertex) ];
          (* meet-exchange: per-agent tau, bipartiteness default *)
          let agents = Placement.Stationary 14 in
          let parties = Placement.count agents g in
          let meet ?obs tau =
            Engine.meet_exchange ?obs ~tau (Rng.of_int seed) g ~source:0 ~agents
              ~max_rounds:20_000 ()
          in
          let tau_free = Array.make parties 0 and tau_rec = Array.make parties 0 in
          same "meet_exchange" ~free:(meet tau_free) ~recorded:(meet ~obs:(recorder ()) tau_rec);
          same_tau "meet_exchange" tau_free tau_rec)
        seeds)
    (families ())

(* ----------------------------------------- dead-leaf push = plain push *)

(* Push as the paper states it, on the checked draw: each round, every
   vertex informed before it calls a random neighbour, in informing order.
   Returns the run and its contact stream. *)
let reference_push ?tau rng g ~source ~max_rounds =
  let n = Graph.n g in
  let order = Array.make n source in
  let informed = Array.make n false in
  informed.(source) <- true;
  Option.iter
    (fun tau ->
      Array.fill tau 0 n max_int;
      tau.(source) <- 0)
    tau;
  let count = ref 1 and contacts = ref 0 and t = ref 0 in
  let curve = ref [ 1 ] and calls = ref [] in
  while !count < n && !t < max_rounds do
    incr t;
    let active = !count in
    for i = 0 to active - 1 do
      let u = order.(i) in
      let v = Graph.random_neighbor g rng u in
      calls := (u, v) :: !calls;
      if not informed.(v) then begin
        informed.(v) <- true;
        Option.iter (fun tau -> tau.(v) <- !t) tau;
        order.(!count) <- v;
        incr count
      end
    done;
    contacts := !contacts + active;
    curve := !count :: !curve
  done;
  ( Run_result.make
      ~broadcast_time:(if !count = n then Some !t else None)
      ~rounds_run:!t
      ~informed_curve:(Array.of_list (List.rev !curve))
      ~contacts:!contacts (),
    List.rev !calls )

(* a spine path 0 .. spine-1, each spine vertex carrying [legs] leaves *)
let caterpillar ~spine ~legs =
  let path = List.init (spine - 1) (fun i -> (i, i + 1)) in
  let leaves = List.init (spine * legs) (fun j -> (j / legs, spine + j)) in
  Graph.of_edges ~n:(spine * (1 + legs)) (path @ leaves)

(* Push keeps the dead leaves (non-source vertices of degree 1) out of its
   frontier and charges each of their calls one generator output.  On
   graphs made mostly of such leaves, from centre, leaf and degree-1
   sources, complete and capped, it must match the reference run field by
   field: curve, contacts, tau, the generator state afterwards, and the
   contact stream, which the kernel replays with each dead call at its
   place; and the instrumented run must equal the bare one. *)
let test_dead_leaf_push_equals_reference () =
  let ds = Rumor_graph.Gen_paper.double_star ~leaves_per_star:6 in
  let graphs =
    [ ("star centre", Gen.star ~leaves:9, 0);
      ("star leaf", Gen.star ~leaves:9, 4);
      ("double star centre", ds.ds_graph, ds.ds_center_a);
      ("double star leaf", ds.ds_graph, ds.ds_leaf_a);
      ("path end", Gen.path 12, 0);
      ("path middle", Gen.path 12, 5);
      ("caterpillar spine", caterpillar ~spine:5 ~legs:3, 2);
      ("caterpillar leg", caterpillar ~spine:5 ~legs:3, 9);
      ("edge", Gen.path 2, 1) ]
  in
  List.iter
    (fun (name, g, source) ->
      let n = Graph.n g in
      List.iter
        (fun (seed, max_rounds) ->
          let label k = Printf.sprintf "%s seed=%d cap=%d: %s" name seed max_rounds k in
          let ref_rng = Rng.of_int seed and rng = Rng.of_int seed in
          let ref_tau = Array.make n 0 and tau = Array.make n 0 in
          let want, want_calls = reference_push ~tau:ref_tau ref_rng g ~source ~max_rounds in
          let calls = ref [] in
          let obs = Instrument.make ~on_contact:(fun u v -> calls := (u, v) :: !calls) () in
          let got = Engine.push ~obs ~tau rng g ~source ~max_rounds () in
          check_same_result (label "result") want got;
          Alcotest.(check (array int)) (label "tau") ref_tau tau;
          Alcotest.(check (list (pair int int))) (label "contact stream") want_calls
            (List.rev !calls);
          Alcotest.(check int64) (label "generator state") (Rng.bits64 ref_rng)
            (Rng.bits64 rng);
          let free = Engine.push (Rng.of_int seed) g ~source ~max_rounds () in
          check_same_result (label "obs-free") got free)
        [ (1, 10_000); (2, 10_000); (3, 3); (4, 1); (5, 0) ])
    graphs

(* Each kernel checks once per run that none of its callers is isolated,
   and raises the checked draw's own error before its first contact; a run
   that makes no contact needs no neighbour. *)
let test_isolated_callers () =
  let isolated = Invalid_argument "Graph.random_neighbor: isolated vertex" in
  (* an edge 0-1 and the isolated vertex 2 *)
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  let r = Engine.push (Rng.of_int 1) g ~source:2 ~max_rounds:0 () in
  Alcotest.(check (array int)) "isolated source, cap 0: returns" [| 1 |]
    r.Run_result.informed_curve;
  let single = Graph.of_edges ~n:1 [] in
  let r = Engine.push (Rng.of_int 1) single ~source:0 ~max_rounds:5 () in
  Alcotest.(check (option int)) "one vertex: done at round 0" (Some 0)
    r.Run_result.broadcast_time;
  ignore (Engine.push_pull (Rng.of_int 1) g ~source:0 ~max_rounds:0 ());
  (* the refusals: no contact fired, and the generator untouched *)
  let refused label f =
    let contacts = ref 0 in
    let obs = Instrument.make ~on_contact:(fun _ _ -> incr contacts) () in
    let rng = Rng.of_int 7 in
    Alcotest.check_raises label isolated (fun () -> f ~obs rng);
    Alcotest.(check int) (label ^ ": no contact") 0 !contacts;
    Alcotest.(check int64) (label ^ ": no draw") (Rng.bits64 (Rng.of_int 7)) (Rng.bits64 rng)
  in
  refused "push, isolated source" (fun ~obs rng ->
      ignore (Engine.push ~obs rng g ~source:2 ~max_rounds:5 ()));
  refused "push_pull" (fun ~obs rng ->
      ignore (Engine.push_pull ~obs rng g ~source:0 ~max_rounds:5 ()));
  refused "async push, isolated source" (fun ~obs rng ->
      ignore
        (P.Async_engine.push ~obs rng g ~variant:P.Async_push.Async_push ~source:2
           ~max_time:5.0));
  refused "async push-pull" (fun ~obs rng ->
      ignore
        (P.Async_engine.push ~obs rng g ~variant:P.Async_push.Async_push_pull ~source:0
           ~max_time:5.0));
  (* combined places its agents first (stationary: only on 0 and 1), then
     refuses before its push-pull half calls *)
  let contacts = ref 0 in
  let obs = Instrument.make ~on_contact:(fun _ _ -> incr contacts) () in
  Alcotest.check_raises "combined" isolated (fun () ->
      ignore
        (Engine.combined ~obs (Rng.of_int 7) g ~source:0 ~agents:(Placement.Stationary 4)
           ~max_rounds:5 ()));
  Alcotest.(check int) "combined: no contact" 0 !contacts;
  (* async push from a live source never calls the isolated vertex *)
  let r =
    P.Async_engine.push (Rng.of_int 7) g ~variant:P.Async_push.Async_push ~source:0
      ~max_time:50.0
  in
  Alcotest.(check int) "async push: the source's component" 2 r.P.Async_push.informed

(* ---------------------------------------------------- tracing a kernel *)

module Trace = Rumor_obs.Trace
module Counters = Rumor_obs.Counters

(* Every round kernel and walker representation, with the round span it
   opens and the child spans each round carries. *)
let traced_kernels =
  let agents = Placement.Stationary 12 in
  let walkers = P.Sparse_walkers.Sparse in
  [
    ( "push", "push.round", [],
      fun trace ~max_rounds rng g ->
        Engine.push ?trace rng g ~source:0 ~max_rounds () );
    ( "push-pull", "push_pull.round", [],
      fun trace ~max_rounds rng g ->
        Engine.push_pull ?trace rng g ~source:0 ~max_rounds () );
    ( "visit-exchange", "visit_exchange.round", [ "walk"; "spread" ],
      fun trace ~max_rounds rng g ->
        Engine.visit_exchange ?trace rng g ~source:0 ~agents ~max_rounds () );
    ( "sparse visit-exchange", "visit_exchange.round", [ "walk"; "spread" ],
      fun trace ~max_rounds rng g ->
        Engine.visit_exchange ?trace ~walkers rng g ~source:0 ~agents
          ~max_rounds () );
    ( "meet-exchange", "meet_exchange.round", [ "walk"; "spread" ],
      fun trace ~max_rounds rng g ->
        Engine.meet_exchange ?trace rng g ~source:0 ~agents ~max_rounds () );
    ( "sparse meet-exchange", "meet_exchange.round", [ "walk"; "spread" ],
      fun trace ~max_rounds rng g ->
        Engine.meet_exchange ?trace ~walkers rng g ~source:0 ~agents
          ~max_rounds () );
    ( "combined", "combined.round", [ "push_pull"; "walk"; "spread" ],
      fun trace ~max_rounds rng g ->
        Engine.combined ?trace rng g ~source:0 ~agents ~max_rounds () );
  ]

(* the recorded events of a balanced tracer, read back from its JSONL *)
let trace_events tr =
  let path = Filename.temp_file "rumor_engine_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write_jsonl tr path;
      match Trace.read_file path with
      | Ok f -> f.Trace.file_events
      | Error msg -> Alcotest.failf "read_file: %s" msg)

let test_traced_equals_untraced () =
  List.iter
    (fun (label, _, _, run) ->
      List.iter
        (fun (name, g) ->
          List.iter
            (fun seed ->
              let plain = run None ~max_rounds:100_000 (Rng.of_int seed) g in
              let traced =
                run (Some (Trace.create ())) ~max_rounds:100_000
                  (Rng.of_int seed) g
              in
              check_same_result
                (Printf.sprintf "%s %s seed=%d" label name seed)
                plain traced)
            seeds)
        (families ()))
    traced_kernels

(* one round span per round, numbered 1 .. rounds_run in order, each
   holding the kernel's child spans once; everything on the caller's track *)
let test_round_spans () =
  let g = Gen.torus ~rows:6 ~cols:6 in
  List.iter
    (fun (label, round_name, children, run) ->
      let tr = Trace.create () in
      let r = run (Some tr) ~max_rounds:100_000 (Rng.of_int 3) g in
      let rounds = r.Run_result.rounds_run in
      Alcotest.(check bool) (label ^ ": ran rounds") true (rounds > 0);
      Alcotest.(check int) (label ^ ": balanced") 0 (Trace.open_spans tr);
      let events = trace_events tr in
      let spans =
        List.filter (fun (e : Trace.event) -> e.Trace.ph = `Span) events
      in
      let named name =
        List.filter (fun (e : Trace.event) -> String.equal e.Trace.name name) spans
      in
      Alcotest.(check (list (option int)))
        (label ^ ": round spans 1..rounds_run")
        (List.init rounds (fun i -> Some (i + 1)))
        (List.map (fun (e : Trace.event) -> e.Trace.arg) (named round_name));
      List.iter
        (fun child ->
          Alcotest.(check int)
            (Printf.sprintf "%s: one %s span per round" label child)
            rounds
            (List.length (named child)))
        children;
      Alcotest.(check int)
        (label ^ ": no other spans")
        (rounds * (1 + List.length children))
        (List.length spans);
      Alcotest.(check (list int))
        (label ^ ": caller's track only")
        [ 0 ]
        (List.sort_uniq Int.compare
           (List.map (fun (e : Trace.event) -> e.Trace.tid) events)))
    traced_kernels

(* the registry's rounds/contacts counters and the informed series agree
   with the run's result *)
let test_trace_counters () =
  let g = Gen_random.erdos_renyi (Rng.of_int 4242) ~n:40 ~p:0.15 in
  List.iter
    (fun (label, _, _, run) ->
      let tr = Trace.create () in
      let r = run (Some tr) ~max_rounds:100_000 (Rng.of_int 11) g in
      let rounds = r.Run_result.rounds_run in
      let cs = Trace.counters tr in
      Alcotest.(check int) (label ^ ": rounds counter") rounds
        (Counters.value (Counters.counter cs "rounds"));
      (* the counter sums per-round deltas, so it leaves out round 0's
         contacts (agents placed on the source), which a zero-round run on
         the same seed reports *)
      let round0 = run None ~max_rounds:0 (Rng.of_int 11) g in
      Alcotest.(check int) (label ^ ": contacts counter")
        (r.Run_result.contacts - round0.Run_result.contacts)
        (Counters.value (Counters.counter cs "contacts"));
      let per_round =
        Counters.bucket_counts
          (Counters.histogram cs "contacts_per_round"
             ~buckets:[| 1.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. |])
      in
      Alcotest.(check int) (label ^ ": one histogram sample per round") rounds
        (Array.fold_left ( + ) 0 per_round);
      let informed =
        List.filter_map
          (fun (e : Trace.event) ->
            if e.Trace.ph = `Counter && String.equal e.Trace.name "informed" then
              Some e.Trace.value
            else None)
          (trace_events tr)
      in
      Alcotest.(check (list int))
        (label ^ ": informed series = curve after round 0")
        (List.tl (Array.to_list r.Run_result.informed_curve))
        informed)
    traced_kernels

(* the walker kernels and combined share push's argument checks *)
let test_walker_validation () =
  let g = Gen.complete 4 and agents = Placement.Stationary 3 in
  let raises who f =
    Alcotest.check_raises (who ^ ": bad source")
      (Invalid_argument (who ^ ": source out of range"))
      (fun () -> ignore (f ~source:4 ~max_rounds:10));
    Alcotest.check_raises (who ^ ": negative cap")
      (Invalid_argument (who ^ ": negative round cap"))
      (fun () -> ignore (f ~source:0 ~max_rounds:(-1)))
  in
  raises "Engine.visit_exchange" (fun ~source ~max_rounds ->
      Engine.visit_exchange (Rng.of_int 1) g ~source ~agents ~max_rounds ());
  raises "Engine.meet_exchange" (fun ~source ~max_rounds ->
      Engine.meet_exchange (Rng.of_int 1) g ~source ~agents ~max_rounds ());
  raises "Engine.combined" (fun ~source ~max_rounds ->
      Engine.combined (Rng.of_int 1) g ~source ~agents ~max_rounds ())

(* the informed-state bit set against a bool array, over sizes that end
   inside and on byte boundaries *)
let prop_bitset_membership =
  QCheck.Test.make ~count:200 ~name:"bitset mem agrees with a bool array"
    QCheck.(pair (int_range 0 200) (list small_nat))
    (fun (n, adds) ->
      let s = P.Bitset.create n and reference = Array.make n false in
      List.iter
        (fun i ->
          if n > 0 then begin
            P.Bitset.add s (i mod n);
            reference.(i mod n) <- true
          end)
        adds;
      Array.for_all Fun.id (Array.mapi (fun i b -> Bool.equal b (P.Bitset.mem s i)) reference))

(* a snapshot copies every bit, and later adds to either side stay there *)
let test_bitset_snapshot () =
  let n = 77 in
  let src = P.Bitset.create n and dst = P.Bitset.create n in
  List.iter (P.Bitset.add src) [ 0; 7; 8; 63; 76 ];
  P.Bitset.add dst 5;
  P.Bitset.snapshot ~src ~dst;
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "bit %d" i) (P.Bitset.mem src i) (P.Bitset.mem dst i)
  done;
  P.Bitset.add src 30;
  P.Bitset.add dst 40;
  Alcotest.(check bool) "src add stays in src" false (P.Bitset.mem dst 30);
  Alcotest.(check bool) "dst add stays in dst" false (P.Bitset.mem src 40);
  Alcotest.check_raises "negative size" (Invalid_argument "Bitset.create: negative size")
    (fun () -> ignore (P.Bitset.create (-1)))

let suite =
  [
    Alcotest.test_case "max_int cap: O(rounds) allocation" `Quick test_huge_cap_completes;
    Alcotest.test_case "disabled trace allocation-free" `Quick
      test_disabled_trace_allocation_free;
    Alcotest.test_case "obs-free run = recorded run" `Quick
      test_obs_free_equals_recorded;
    Alcotest.test_case "max_int cap: walkers" `Quick test_huge_cap_walkers;
    Alcotest.test_case "argument validation" `Quick test_validation;
    Alcotest.test_case "curve buffer" `Quick test_curve_buf;
    Alcotest.test_case "sparse visit-exchange completes deterministically" `Quick
      test_sparse_visit_exchange_completes;
    Alcotest.test_case "sparse meet-exchange completes deterministically" `Quick
      test_sparse_meet_exchange_completes;
    Alcotest.test_case "sparse occupancy hook" `Quick test_sparse_occupancy_hook;
    Alcotest.test_case "auto below threshold is dense" `Quick
      test_walkers_auto_resolution;
    Alcotest.test_case "visit-exchange tau (dense, sparse)" `Quick
      test_visit_exchange_tau;
    Alcotest.test_case "meet-exchange per-agent tau" `Quick test_meet_exchange_tau;
    Alcotest.test_case "traced run = untraced run" `Quick
      test_traced_equals_untraced;
    Alcotest.test_case "one round span per round" `Quick test_round_spans;
    Alcotest.test_case "trace counters match the result" `Quick
      test_trace_counters;
    Alcotest.test_case "walker and combined argument validation" `Quick
      test_walker_validation;
    Alcotest.test_case "dead-leaf push = reference push" `Quick
      test_dead_leaf_push_equals_reference;
    Alcotest.test_case "isolated callers refused before the first contact" `Quick
      test_isolated_callers;
    QCheck_alcotest.to_alcotest prop_bitset_membership;
    Alcotest.test_case "bitset snapshot" `Quick test_bitset_snapshot;
  ]
