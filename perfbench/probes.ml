(* Direct calls into single layers, for the per-layer metrics the jobs
   cannot isolate: the machine floor, the samplers, placement, the sparse
   walker step and the DES schedulers.  Each probe runs under a span named
   after its layer and returns (metric, value, unit) triples. *)

module Rng = Rumor_prob.Rng
module Dist = Rumor_prob.Dist
module Fenwick = Rumor_prob.Fenwick
module Graph = Rumor_graph.Graph
module Placement = Rumor_agents.Placement
module Sparse_walkers = Rumor_protocols.Sparse_walkers
open Measure

(* results land here so that no probe loop is dead code *)
let sink = ref 0

(* ------------------------------------------------------------------ floor *)

(* A sequential sweep over every CSR adjacency entry of [g], and a random
   gather over an n-sized int array: the two memory access patterns the
   round kernels are made of.  Kernel rates are read as multiples of the
   gather. *)
let floor ?trace g =
  let n = Graph.n g in
  let arcs = Graph.arc_count g in
  let sweeps = 8 in
  let stream =
    span trace "floor.csr_stream" (fun () ->
        per_op ~ops:(sweeps * arcs) (fun _ ->
            for _ = 1 to sweeps do
              let acc = ref 0 in
              for u = 0 to n - 1 do
                for i = 0 to Graph.degree g u - 1 do
                  acc := !acc + Graph.neighbor g u i
                done
              done;
              sink := !acc
            done))
  in
  let data = Array.init n (fun i -> i) in
  let rng = Rng.of_int 1 in
  let idx = Array.init (4 * n) (fun _ -> Rng.int rng n) in
  let gather =
    span trace "floor.gather" (fun () ->
        per_op ~ops:(sweeps * 4 * Array.length idx) (fun _ ->
            for _ = 1 to sweeps * 4 do
              let acc = ref 0 in
              Array.iter (fun i -> acc := !acc + Array.unsafe_get data i) idx;
              sink := !acc
            done))
  in
  [
    ("floor.csr_stream_ns_per_edge", stream, "ns");
    ("floor.gather_ns", gather, "ns");
  ]

(* ------------------------------------------------------------------- prob *)

(* Sampler costs at the parameters the sparse walker sweep uses on G(n, p):
   about 15 neighbour slots per vertex. *)
let prob ?trace g ~seed =
  let rng = Rng.of_int seed in
  let slots = 15 in
  let draws name ops f = (name, span trace name (fun () -> per_op ~ops f), "ns") in
  let bits64 =
    draws "prob.bits64_ns" 1_000_000 (fun k ->
        for _ = 1 to k do
          sink := !sink lxor Int64.to_int (Rng.bits64 rng)
        done)
  in
  let binomial =
    draws "prob.binomial_ns" 50_000 (fun k ->
        for _ = 1 to k do
          sink := !sink + Dist.binomial rng 16 (1.0 /. float_of_int slots)
        done)
  in
  let weights = Array.make slots 1.0 in
  let multinomial_calls = 5_000 in
  let _, per_call, _ =
    draws "prob.multinomial" multinomial_calls (fun k ->
        for _ = 1 to k do
          sink := !sink + (Dist.multinomial rng 16 weights).(0)
        done)
  in
  let exponential =
    draws "prob.exponential_ns" 500_000 (fun k ->
        for _ = 1 to k do
          sink := !sink + int_of_float (Dist.exponential rng 1.0)
        done)
  in
  let tree = Fenwick.of_counts (Placement.place_counts rng (Placement.Linear 1.0) g) in
  let targets = Array.init 100_000 (fun _ -> Rng.int rng (Fenwick.total tree)) in
  let fenwick =
    draws "prob.fenwick_find_ns" (Array.length targets) (fun _ ->
        Array.iter (fun r -> sink := !sink + fst (Fenwick.find tree r)) targets)
  in
  [
    bits64;
    binomial;
    ("prob.multinomial_ns_per_slot", per_call /. float_of_int slots, "ns");
    exponential;
    fenwick;
  ]

(* ----------------------------------------------------------------- agents *)

let alphas = [ 0.25; 1.0 ]

(* Placement of at least 100k agents per batch, split over the two agent
   densities of the gnp-sync walker kernels. *)
let agents ?trace g ~seed =
  let rng = Rng.of_int seed in
  let specs = List.map (fun a -> Placement.Linear a) alphas in
  let per_batch = List.fold_left (fun acc s -> acc + Placement.count s g) 0 specs in
  let calls = max 1 (100_000 / per_batch) in
  let rate name place =
    ( name,
      span trace name (fun () ->
          per_op ~ops:(calls * per_batch) (fun _ ->
              for _ = 1 to calls do
                List.iter (fun s -> sink := !sink + (place rng s g).(0)) specs
              done)),
      "ns" )
  in
  [
    rate "agents.place_ns_per_agent" Placement.place;
    rate "agents.place_counts_ns_per_agent" Placement.place_counts;
  ]

(* --------------------------------------------------------- sparse walkers *)

(* [Sparse_walkers.step] driven directly for [rounds alpha] rounds (the
   round count of the matching sparse visit-exchange kernel), reporting the
   cost per agent moved and the mean share of vertices that hold a walker. *)
let sparse_walkers ?trace g ~seed ~rounds =
  let n = float_of_int (Graph.n g) in
  List.concat_map
    (fun alpha ->
      let tag = Workloads.alpha_tag alpha in
      let rounds = max 1 (rounds alpha) in
      let rng = Rng.of_int seed in
      let occupied = ref 0.0 in
      let (k, ()), s =
        span trace ("sparse_walkers." ^ tag) (fun () ->
            time (fun () ->
                let w =
                  Sparse_walkers.create ~lazy_walk:false rng g (Placement.Linear alpha)
                in
                ( Sparse_walkers.agent_count w,
                  for _ = 1 to rounds do
                    Sparse_walkers.step rng w;
                    occupied :=
                      !occupied +. float_of_int (Sparse_walkers.occupied_count w)
                  done )))
      in
      [
        ( Printf.sprintf "sparse_walkers.%s.step_ns_per_agent" tag,
          s *. 1e9 /. float_of_int (k * rounds),
          "ns" );
        ( Printf.sprintf "sparse_walkers.%s.occupied_frac" tag,
          !occupied /. float_of_int rounds /. n,
          "frac" );
      ])
    alphas

(* -------------------------------------------------------------------- des *)

(* Brown's hold model: [pending] events in the queue, then pop the earliest
   and push it back an Exp(1) gap later — the access pattern of the async
   kernels, whose pending-event count is one clock per informed vertex or
   per agent. *)
module Hold (Q : Rumor_des.Queue_intf.S) = struct
  let run ~pending ~ops ~seed =
    let rng = Rng.of_int seed in
    let gaps = Array.init ops (fun _ -> Dist.exponential rng 1.0) in
    let q = Q.create () in
    for i = 0 to pending - 1 do
      Q.push q (Dist.exponential rng 1.0) i
    done;
    let slot = ref 0 in
    let cycle () =
      for i = 0 to ops - 1 do
        let t = Q.pop_into q slot in
        Q.push q (t +. Array.unsafe_get gaps i) !slot
      done
    in
    (* the first pass brings the queue to its steady state *)
    cycle ();
    let (), s = time cycle in
    s *. 1e9 /. float_of_int ops
end

module Hold_heap = Hold (Rumor_des.Event_queue)
module Hold_calendar = Hold (Rumor_des.Calendar_queue)

let des ?trace ~seed pending =
  let ops = 200_000 in
  let calendar =
    span trace "des.calendar_hold" (fun () -> Hold_calendar.run ~pending ~ops ~seed)
  in
  let heap = span trace "des.heap_hold" (fun () -> Hold_heap.run ~pending ~ops ~seed) in
  let stream = Rumor_des.Exp_stream.create (Rng.of_int seed) in
  let exp_stream =
    span trace "des.exp_stream" (fun () ->
        per_op ~ops:500_000 (fun k ->
            for _ = 1 to k do
              sink := !sink + int_of_float (Rumor_des.Exp_stream.next stream)
            done))
  in
  [
    ("des.calendar.hold_ns", calendar, "ns");
    ("des.heap.hold_ns", heap, "ns");
    ("des.exp_stream_ns", exp_stream, "ns");
  ]
