(* Tests for Rumor_protocols.Async_engine beyond the golden digests
   (test_golden.ml): the superposed-clock kernels against the exact
   broadcast-time law on K_n, dense against sparse meet-exchange in law,
   determinism of results and observation streams, runs complete at time 0,
   the sparse path, projection and validation. *)

module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Gen = Rumor_graph.Gen_basic
module Gen_random = Rumor_graph.Gen_random
module Placement = Rumor_agents.Placement
module P = Rumor_protocols
module Async_engine = Rumor_protocols.Async_engine
module Instrument = Rumor_obs.Instrument
module Trace = Rumor_obs.Trace

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

let check_push_result label (a : P.Async_push.result) (b : P.Async_push.result) =
  Alcotest.(check (option (float 0.0)))
    (label ^ ": broadcast_time") a.P.Async_push.broadcast_time
    b.P.Async_push.broadcast_time;
  Alcotest.(check int) (label ^ ": rings") a.P.Async_push.rings b.P.Async_push.rings;
  Alcotest.(check int)
    (label ^ ": informed") a.P.Async_push.informed b.P.Async_push.informed;
  Alcotest.(check (array int))
    (label ^ ": curve") a.P.Async_push.curve b.P.Async_push.curve

let check_meet_result label (a : P.Async_meet_exchange.result)
    (b : P.Async_meet_exchange.result) =
  Alcotest.(check (option (float 0.0)))
    (label ^ ": broadcast_time") a.P.Async_meet_exchange.broadcast_time
    b.P.Async_meet_exchange.broadcast_time;
  Alcotest.(check int)
    (label ^ ": rings") a.P.Async_meet_exchange.rings b.P.Async_meet_exchange.rings;
  Alcotest.(check int)
    (label ^ ": informed") a.P.Async_meet_exchange.informed
    b.P.Async_meet_exchange.informed;
  Alcotest.(check int)
    (label ^ ": agents") a.P.Async_meet_exchange.agents b.P.Async_meet_exchange.agents;
  Alcotest.(check (array int))
    (label ^ ": curve") a.P.Async_meet_exchange.curve b.P.Async_meet_exchange.curve

(* records the exact hook-event sequence, not just counts *)
let stream_obs () =
  let events = ref [] in
  let obs =
    Instrument.make
      ~on_contact:(fun u v -> events := (0, u, v, 0) :: !events)
      ~on_walker_move:(fun ~agent ~from_ ~to_ ->
        events := (1, agent, from_, to_) :: !events)
      ()
  in
  (obs, events)

(* ------------------------------------------------ Kolmogorov-Smirnov *)

(* Both KS gates reject when D exceeds sqrt(ln(2/a) / 2) / sqrt(m), with m
   the sample size (one-sample) or n1*n2/(n1+n2) (two-sample).  For the
   one-sample test this is the Dvoretzky-Kiefer-Wolfowitz bound with
   Massart's constant, P(D > eps) <= 2 exp(-2 m eps^2), so the false-alarm
   rate is at most [a] exactly; for the two-sample test it is the first
   term of Kolmogorov's alternating series, which bounds the asymptotic
   tail from above. *)
let ks_threshold ~alpha ~m = sqrt (log (2.0 /. alpha) /. 2.0) /. sqrt m

(* sup_t |F_emp(t) - cdf t| over the sorted sample *)
let ks_one_sample xs cdf =
  let xs = Array.copy xs in
  Array.sort Float.compare xs;
  let m = float_of_int (Array.length xs) in
  let d = ref 0.0 in
  Array.iteri
    (fun i x ->
      let f = cdf x in
      let above = (float_of_int (i + 1) /. m) -. f in
      let below = f -. (float_of_int i /. m) in
      d := Float.max !d (Float.max above below))
    xs;
  !d

let ks_two_sample xs ys =
  let xs = Array.copy xs and ys = Array.copy ys in
  Array.sort Float.compare xs;
  Array.sort Float.compare ys;
  let nx = Array.length xs and ny = Array.length ys in
  let i = ref 0 and j = ref 0 and d = ref 0.0 in
  while !i < nx && !j < ny do
    let t = Float.min xs.(!i) ys.(!j) in
    while !i < nx && xs.(!i) <= t do incr i done;
    while !j < ny && ys.(!j) <= t do incr j done;
    d :=
      Float.max !d
        (Float.abs
           ((float_of_int !i /. float_of_int nx) -. (float_of_int !j /. float_of_int ny)))
  done;
  !d

(* -------------------------------------------- K_n: the exact law *)

(* On K_n with i informed vertices the next informing happens at total
   rate i(n-i)/(n-1) under async push (each informed vertex rings at rate 1
   and hits one of the n-i uninformed among its n-1 neighbours) and
   2i(n-i)/(n-1) under push-pull (uninformed ringers pull from an informed
   neighbour at the same total rate).  The broadcast time is the
   absorption time of that pure-birth chain. *)
let kn_rates ~n variant =
  let factor =
    match variant with P.Async_push.Async_push -> 1.0 | Async_push_pull -> 2.0
  in
  Array.init (n - 1) (fun idx ->
      let i = float_of_int (idx + 1) in
      factor *. i *. (float_of_int n -. i) /. float_of_int (n - 1))

(* P(T <= t) by uniformization: with L = max rate, the chain is a
   rate-L Poisson number of steps of the discrete chain that advances from
   state i with probability rate_i / L, so
   P(T <= t) = sum_k Poisson(k; L t) * P(the discrete chain is absorbed
   within k steps). *)
let kn_cdf rates t =
  if t <= 0.0 then 0.0
  else begin
    let states = Array.length rates + 1 in
    let lam = Array.fold_left Float.max 0.0 rates in
    let lt = lam *. t in
    if lt > 600.0 then invalid_arg "kn_cdf: L t too large for the Poisson weights";
    let p = Array.make states 0.0 in
    p.(0) <- 1.0;
    let weight = ref (exp (-.lt)) and mass = ref 0.0 and acc = ref 0.0 in
    let k = ref 0 in
    while !mass < 1.0 -. 1e-12 && !k < 100_000 do
      acc := !acc +. (!weight *. p.(states - 1));
      mass := !mass +. !weight;
      (* one step of the discrete chain, top state down *)
      for s = states - 2 downto 0 do
        let move = p.(s) *. rates.(s) /. lam in
        p.(s + 1) <- p.(s + 1) +. move;
        p.(s) <- p.(s) -. move
      done;
      incr k;
      weight := !weight *. lt /. float_of_int !k
    done;
    !acc
  end

(* the oracle itself: its mean, integral of 1 - F, matches sum 1/rate_i *)
let test_kn_oracle () =
  List.iter
    (fun n ->
      let rates = kn_rates ~n P.Async_push.Async_push in
      let exact = Array.fold_left (fun a r -> a +. (1.0 /. r)) 0.0 rates in
      let dt = 0.005 and horizon = 60.0 in
      let steps = int_of_float (horizon /. dt) in
      let integral = ref 0.0 in
      for s = 0 to steps - 1 do
        let t = (float_of_int s +. 0.5) *. dt in
        integral := !integral +. ((1.0 -. kn_cdf rates t) *. dt)
      done;
      Alcotest.(check (float 1e-3)) (Printf.sprintf "K_%d mean" n) exact !integral)
    [ 4; 8 ]

(* Family-wise false-alarm rate 10^-3 over the K_n matrix (n in {8, 16} x
   {push, push-pull}): Bonferroni, each cell tests at 10^-3 / 4. *)
let kn_sizes = [ 8; 16 ]
let kn_alpha = 1e-3 /. 4.0
let kn_runs = 400

let check_kn_law variant () =
  List.iter
    (fun n ->
      let g = Gen.complete n in
      let times =
        Array.init kn_runs (fun rep ->
            let r =
              Async_engine.push (Rng.of_int (1000 + rep)) g ~variant ~source:0
                ~max_time:1e6
            in
            match r.P.Async_push.broadcast_time with
            | Some t -> t
            | None -> Alcotest.fail "K_n run did not complete")
      in
      let rates = kn_rates ~n variant in
      let d = ks_one_sample times (kn_cdf rates) in
      let crit = ks_threshold ~alpha:kn_alpha ~m:(float_of_int kn_runs) in
      Alcotest.(check bool)
        (Printf.sprintf "K_%d: KS D = %.4f <= %.4f" n d crit)
        true (d <= crit))
    kn_sizes

(* -------------------------------------- dense = sparse meet-exchange *)

(* Two independent implementations of one law: the ringer drawn by agent
   id against the ringer's vertex drawn through a Fenwick index.
   Family-wise false-alarm rate 10^-3 over the two graphs: Bonferroni,
   each graph tests at 10^-3 / 2. *)
let test_dense_sparse_law () =
  let runs = 400 in
  let alpha = 1e-3 /. 2.0 in
  List.iter
    (fun (name, g) ->
      let times walkers salt =
        Array.init runs (fun rep ->
            let r =
              Async_engine.meet_exchange ~walkers (Rng.of_int (salt + rep)) g ~source:0
                ~agents:(Placement.Stationary 12) ~max_time:1e6
            in
            match r.P.Async_meet_exchange.broadcast_time with
            | Some t -> t
            | None -> Alcotest.fail (name ^ ": run did not complete"))
      in
      let dense = times P.Sparse_walkers.Dense 20_000 in
      let sparse = times P.Sparse_walkers.Sparse 30_000 in
      let d = ks_two_sample dense sparse in
      let m = float_of_int (runs * runs) /. float_of_int (runs + runs) in
      let crit = ks_threshold ~alpha ~m in
      Alcotest.(check bool)
        (Printf.sprintf "%s: KS D = %.4f <= %.4f" name d crit)
        true (d <= crit))
    [ ("complete16", Gen.complete 16); ("torus6x6", Gen.torus ~rows:6 ~cols:6) ]

(* ------------------------------------------------------- determinism *)

(* Same seed, same run: result and the full obs stream; a trace attached
   to the second run must not change either (it never draws). *)
let test_same_seed_same_run () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          List.iter
            (fun variant ->
              let run trace =
                let obs, events = stream_obs () in
                let r =
                  Async_engine.push ~obs ?trace (Rng.of_int seed) g ~variant ~source:0
                    ~max_time:1e6
                in
                (r, !events)
              in
              let a, a_events = run None in
              let b, b_events = run (Some (Trace.create ())) in
              let label = Printf.sprintf "%s seed=%d" name seed in
              check_push_result label a b;
              Alcotest.(check bool) (label ^ ": obs stream") true (a_events = b_events))
            [ P.Async_push.Async_push; P.Async_push.Async_push_pull ];
          List.iter
            (fun agents ->
              let run trace =
                let obs, events = stream_obs () in
                let r =
                  Async_engine.meet_exchange ~obs ?trace (Rng.of_int seed) g ~source:0
                    ~agents ~max_time:20_000.0
                in
                (r, !events)
              in
              let a, a_events = run None in
              let b, b_events = run (Some (Trace.create ())) in
              let label = Printf.sprintf "me %s seed=%d" name seed in
              check_meet_result label a b;
              Alcotest.(check bool) (label ^ ": obs stream") true (a_events = b_events))
            [ Placement.Stationary 12; Placement.One_per_vertex ])
        seeds)
    (families ())

(* Async push rings only informed vertices: every contact's caller is
   informed when it calls. *)
let test_push_rings_informed_only () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let informed = Array.make (Graph.n g) false in
          informed.(0) <- true;
          let obs =
            Instrument.make
              ~on_contact:(fun u v ->
                if not informed.(u) then
                  Alcotest.failf "%s seed=%d: uninformed %d rang" name seed u;
                informed.(v) <- true)
              ()
          in
          let r =
            Async_engine.push ~obs (Rng.of_int seed) g ~variant:P.Async_push.Async_push
              ~source:0 ~max_time:1e6
          in
          Alcotest.(check int)
            (Printf.sprintf "%s seed=%d: informed" name seed)
            (Array.fold_left (fun a b -> if b then a + 1 else a) 0 informed)
            r.P.Async_push.informed)
        seeds)
    (families ())

(* --------------------------------------------------- complete at t = 0 *)

(* A run complete before its first ring reports Some 0.0 and no rings,
   and draws nothing after the clock split and the placement: the run
   generator is left where those two leave it. *)
let test_complete_at_zero () =
  let after_setup ?place seed =
    let rng = Rng.of_int seed in
    ignore (Rng.split rng);
    Option.iter (fun f -> f rng) place;
    Rng.bits64 rng
  in
  let k1 = Gen.complete 1 in
  List.iter
    (fun (vname, variant) ->
      let rng = Rng.of_int 5 in
      let r = Async_engine.push rng k1 ~variant ~source:0 ~max_time:10.0 in
      Alcotest.(check (option (float 0.0)))
        (vname ^ " K_1: broadcast_time") (Some 0.0) r.P.Async_push.broadcast_time;
      Alcotest.(check int) (vname ^ " K_1: rings") 0 r.P.Async_push.rings;
      Alcotest.(check (array int)) (vname ^ " K_1: curve") [| 1 |] r.P.Async_push.curve;
      Alcotest.(check int64) (vname ^ " K_1: no ringer drawn") (after_setup 5)
        (Rng.bits64 rng))
    [ ("push", P.Async_push.Async_push); ("push-pull", P.Async_push.Async_push_pull) ];
  let g = Gen.complete 8 in
  let agents = Placement.All_at (0, 5) in
  List.iter
    (fun (wname, walkers, place) ->
      let obs, events = stream_obs () in
      let rng = Rng.of_int 6 in
      let r =
        Async_engine.meet_exchange ~obs ~walkers rng g ~source:0 ~agents ~max_time:10.0
      in
      let module M = P.Async_meet_exchange in
      Alcotest.(check (option (float 0.0)))
        (wname ^ ": broadcast_time") (Some 0.0) r.M.broadcast_time;
      Alcotest.(check int) (wname ^ ": rings") 0 r.M.rings;
      Alcotest.(check int) (wname ^ ": informed") 5 r.M.informed;
      Alcotest.(check (array int)) (wname ^ ": curve") [| 5 |] r.M.curve;
      Alcotest.(check bool) (wname ^ ": no walker moved") true
        (List.for_all (fun (tag, _, _, _) -> tag = 0) !events);
      Alcotest.(check int64) (wname ^ ": no ringer drawn")
        (after_setup ~place 6) (Rng.bits64 rng))
    [
      ("dense", P.Sparse_walkers.Dense, fun rng -> ignore (Placement.place rng agents g));
      ( "sparse",
        P.Sparse_walkers.Sparse,
        fun rng -> ignore (Placement.place_counts rng agents g) );
    ];
  (* k = 0 agents never reaches a kernel: the placement rejects it *)
  List.iter
    (fun (walkers, msg) ->
      Alcotest.check_raises "k = 0 rejected" (Invalid_argument msg) (fun () ->
          ignore
            (Async_engine.meet_exchange ~walkers (Rng.of_int 7) g ~source:0
               ~agents:(Placement.Stationary 0) ~max_time:10.0)))
    [
      (P.Sparse_walkers.Dense, "Placement.place: no agents");
      (P.Sparse_walkers.Sparse, "Placement.place_counts: no agents");
    ]

(* ------------------------------------------------- run_result projection *)

let test_to_run_result () =
  let g = Gen.complete 16 in
  let r =
    Async_engine.push (Rng.of_int 3) g ~variant:P.Async_push.Async_push ~source:0
      ~max_time:1e6
  in
  let rr = P.Async_push.to_run_result r in
  (match (r.P.Async_push.broadcast_time, rr.P.Run_result.broadcast_time) with
  | Some t, Some m ->
      Alcotest.(check int) "rounded up" (int_of_float (Float.ceil t)) m
  | _ -> Alcotest.fail "expected completion");
  let curve = rr.P.Run_result.informed_curve in
  Alcotest.(check int) "rounds_run is curve length - 1"
    (Array.length curve - 1) rr.P.Run_result.rounds_run;
  Alcotest.(check int) "curve starts at 1" 1 curve.(0);
  Alcotest.(check int) "curve ends informed" 16 curve.(Array.length curve - 1);
  Alcotest.(check int) "contacts = rings" r.P.Async_push.rings
    rr.P.Run_result.contacts;
  for i = 1 to Array.length curve - 1 do
    if curve.(i) < curve.(i - 1) then Alcotest.fail "curve not monotone"
  done

(* ----------------------------------------------------------- validation *)

let test_validation () =
  let g = Gen.complete 4 in
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad source" true
    (bad (fun () ->
         Async_engine.push (Rng.of_int 1) g ~variant:P.Async_push.Async_push
           ~source:9 ~max_time:10.0));
  Alcotest.(check bool) "bad max_time" true
    (bad (fun () ->
         Async_engine.push (Rng.of_int 1) g ~variant:P.Async_push.Async_push
           ~source:0 ~max_time:0.0));
  Alcotest.(check bool) "meet bad source" true
    (bad (fun () ->
         Async_engine.meet_exchange (Rng.of_int 1) g ~source:(-1)
           ~agents:Placement.One_per_vertex ~max_time:10.0));
  Alcotest.(check bool) "meet bad max_time" true
    (bad (fun () ->
         Async_engine.meet_exchange (Rng.of_int 1) g ~source:0
           ~agents:Placement.One_per_vertex ~max_time:(-1.0)))

(* The sparse meet-exchange path uses one aggregate rate-k clock over a
   Fenwick occupancy index; it is seed-deterministic but not bit-identical
   to the dense per-agent-clock path, so we check completion, conservation
   of the agent count, and determinism. *)
let test_meet_exchange_sparse () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun seed ->
          let run () =
            Async_engine.meet_exchange ~walkers:P.Sparse_walkers.Sparse
              (Rng.of_int seed) g ~source:0 ~agents:(Placement.Stationary 14)
              ~max_time:1e6
          in
          let r = run () in
          Alcotest.(check bool)
            (Printf.sprintf "sparse %s seed=%d: completes" name seed)
            true
            (r.P.Async_meet_exchange.broadcast_time <> None);
          Alcotest.(check int)
            (name ^ ": agent count") 14 r.P.Async_meet_exchange.agents;
          Alcotest.(check int)
            (name ^ ": all agents informed") 14 r.P.Async_meet_exchange.informed;
          check_meet_result (Printf.sprintf "sparse %s seed=%d" name seed) r
            (run ()))
        seeds)
    (families ())

let suite =
  [
    Alcotest.test_case "K_n oracle: mean = sum of 1/rate" `Quick test_kn_oracle;
    Alcotest.test_case "K_n push: exact broadcast-time law (KS)" `Quick
      (check_kn_law P.Async_push.Async_push);
    Alcotest.test_case "K_n push-pull: exact broadcast-time law (KS)" `Quick
      (check_kn_law P.Async_push.Async_push_pull);
    Alcotest.test_case "meet-exchange: dense = sparse in law (KS)" `Quick
      test_dense_sparse_law;
    Alcotest.test_case "same seed: same run and obs stream" `Quick
      test_same_seed_same_run;
    Alcotest.test_case "push rings informed vertices only" `Quick
      test_push_rings_informed_only;
    Alcotest.test_case "complete at t = 0: no ringer drawn" `Quick test_complete_at_zero;
    Alcotest.test_case "sparse meet-exchange completes deterministically" `Quick
      test_meet_exchange_sparse;
    Alcotest.test_case "to_run_result projection" `Quick test_to_run_result;
    Alcotest.test_case "validation" `Quick test_validation;
  ]
