module Rng = Rumor_prob.Rng
module Dist = Rumor_prob.Dist
module Fenwick = Rumor_prob.Fenwick
module Graph = Rumor_graph.Graph
module Placement = Rumor_agents.Placement
module Obs = Rumor_obs.Instrument
module Trace = Rumor_obs.Trace

(* The asynchronous kernels: continuous-time push / push-pull (the
   Async_push model) and meet-exchange (Async_meet_exchange), without an
   event queue.  The superposition of m i.i.d. rate-1 Poisson clocks is one
   Poisson clock of rate m whose every ring belongs to a uniformly random
   one of the m, independently of the past; so each kernel keeps one clock
   of the current total rate, and a ring advances [now] by Exp(1)/rate and
   then draws the ringer:
   - async push: rate |I|, the ringer uniform over the informed vertices
     (an append-only array in informing order);
   - async push-pull: rate n, the ringer [Rng.int rng n];
   - meet-exchange: rate k, the ringer uniform over the agents — by agent
     id (dense) or through a Fenwick index over per-vertex counts (sparse).

   Determinism contract: both kernels follow the clock-stream contract
   documented in Async_push's mli — the first [rng] operation splits off
   the clock generator, each ring draws one Exp(1) gap from it divided by
   the current total rate, all other draws stay on [rng] in event order.
   Every result field (continuous broadcast time, ring count, integer-mark
   curve, obs streams) is therefore a pure function of the seed; the golden
   digests in test/golden_kernels.ml pin it bit for bit. *)

(* Sampling the informed series every ring would swamp the trace — the
   loops sample every 2^10 rings (a power of two so the test mask is
   exact), plus once at loop exit. *)
let trace_sample_mask = 1023

let[@inline] ring_sample trace ~rings ~informed =
  match trace with
  | None -> ()
  | Some tr ->
      if rings land trace_sample_mask = 0 then Trace.counter tr "informed" informed

let[@inline] span_begin trace name =
  match trace with None -> () | Some tr -> Trace.begin_span tr name

let[@inline] loop_end trace ~informed ~rings =
  match trace with
  | None -> ()
  | Some tr ->
      Trace.end_span tr;
      Trace.counter tr "informed" informed;
      Rumor_obs.Counters.add
        (Rumor_obs.Counters.counter (Trace.counters tr) "rings")
        rings

(* Integer-mark curve shared by the loops: the curve value at mark m is
   the informed count after every ring with time <= m.  Marks strictly
   below the current ring's time are emitted just before the ring applies
   (rings come in time order, so at that point every earlier ring has been
   processed). *)
let[@inline] curve_marks curve next_mark ~now ~count =
  while now > float_of_int !next_mark do
    Curve_buf.push curve count;
    incr next_mark
  done

let curve_hint max_time =
  if max_time >= 1e15 then max_int else int_of_float (Float.ceil max_time)

(* Pad the curve and wrap up.  On completion at [finish] (0 when the run
   was complete before the first ring) the curve ends at mark
   ceil(finish); on a cap every integer mark <= max_time is determined. *)
let curve_close curve next_mark ~finished ~finish ~max_time ~count =
  if finished then begin
    let last = int_of_float (Float.ceil finish) in
    while Curve_buf.length curve < last + 1 do
      Curve_buf.push curve count
    done
  end
  else
    while float_of_int !next_mark <= max_time do
      Curve_buf.push curve count;
      incr next_mark
    done

(* lint: hot *)
let push ?obs ?trace rng g ~variant ~source ~max_time =
  let n = Graph.n g in
  if source < 0 || source >= n then
    invalid_arg "Async_engine.push: source out of range";
  if not (max_time > 0.0) then
    invalid_arg "Async_engine.push: max_time must be positive";
  let clock = Rng.split rng in
  let informed = Bitset.create n in
  Bitset.add informed source;
  (* async push's ringer pool: the informed vertices, in informing order *)
  let pool =
    match variant with
    | Async_push.Async_push -> Array.make n source
    | Async_push.Async_push_pull -> [||]
  in
  let informed_count = ref 1 in
  let curve = Curve_buf.create ~hint:(curve_hint max_time) in
  Curve_buf.push curve !informed_count;
  let next_mark = ref 1 in
  let rings = ref 0 in
  let now = ref 0.0 in
  let finished = ref (n = 1) in
  let running = ref (n > 1) in
  span_begin trace "async_engine.push.loop";
  while !running do
    let rate =
      match variant with
      | Async_push.Async_push -> float_of_int !informed_count
      | Async_push.Async_push_pull -> float_of_int n
    in
    let t = !now +. Dist.exponential clock rate in
    if t > max_time then running := false
    else begin
      now := t;
      incr rings;
      ring_sample trace ~rings:!rings ~informed:!informed_count;
      curve_marks curve next_mark ~now:t ~count:!informed_count;
      (match variant with
      | Async_push.Async_push ->
          let u = pool.(Rng.int rng !informed_count) in
          let v = Graph.random_neighbor g rng u in
          Obs.contact obs u v;
          if not (Bitset.mem informed v) then begin
            Bitset.add informed v;
            pool.(!informed_count) <- v;
            incr informed_count
          end
      | Async_push.Async_push_pull ->
          let u = Rng.int rng n in
          let v = Graph.random_neighbor g rng u in
          Obs.contact obs u v;
          if Bitset.mem informed u && not (Bitset.mem informed v) then begin
            Bitset.add informed v;
            incr informed_count
          end
          else if Bitset.mem informed v && not (Bitset.mem informed u) then begin
            Bitset.add informed u;
            incr informed_count
          end);
      if !informed_count = n then begin
        finished := true;
        running := false
      end
    end
  done;
  curve_close curve next_mark ~finished:!finished ~finish:!now ~max_time
    ~count:!informed_count;
  loop_end trace ~informed:!informed_count ~rings:!rings;
  {
    Async_push.broadcast_time = (if !finished then Some !now else None);
    rings = !rings;
    informed = !informed_count;
    curve = Curve_buf.contents curve;
  }

(* lint: hot *)
let meet_exchange_dense ?obs ?trace ~lazy_walk rng g ~source ~agents ~max_time =
  let n = Graph.n g in
  let clock = Rng.split rng in
  let pos = Placement.place rng agents g in
  let k = Array.length pos in
  let informed = Bitset.create (max k 1) in
  let informed_count = ref 0 in
  (* Intrusive per-vertex agent lists in three int arrays: insertion is
     at the head and removal keeps the relative order of the others (the
     order of [a :: agents_at.(v)] / [List.filter] on cons lists), which
     fixes the traversal order and with it the obs contact stream.
     Built by ascending agent id. *)
  let head = Array.make (max n 1) (-1) in
  let next = Array.make (max k 1) (-1) in
  let prev = Array.make (max k 1) (-1) in
  for a = 0 to k - 1 do
    let v = pos.(a) in
    let h = head.(v) in
    next.(a) <- h;
    if h >= 0 then prev.(h) <- a;
    head.(v) <- a
  done;
  let source_active = ref true in
  let inform v a =
    if not (Bitset.mem informed a) then begin
      Bitset.add informed a;
      incr informed_count;
      Obs.contact obs v a
    end
  in
  let rec any_informed a =
    a >= 0 && (Bitset.mem informed a || any_informed next.(a))
  in
  let rec inform_all v a =
    if a >= 0 then begin
      inform v a;
      inform_all v next.(a)
    end
  in
  let exchange_at v =
    let any = any_informed head.(v) in
    let source_hit = !source_active && v = source && head.(v) >= 0 in
    if any || source_hit then begin
      inform_all v head.(v);
      if source_hit then source_active := false
    end
  in
  exchange_at source;
  let rate = float_of_int k in
  let curve = Curve_buf.create ~hint:(curve_hint max_time) in
  Curve_buf.push curve !informed_count;
  let next_mark = ref 1 in
  let rings = ref 0 in
  let now = ref 0.0 in
  let finished = ref (!informed_count = k) in
  let running = ref (not !finished) in
  span_begin trace "async_engine.meet_exchange.loop";
  while !running do
    let t = !now +. Dist.exponential clock rate in
    if t > max_time then running := false
    else begin
      now := t;
      incr rings;
      ring_sample trace ~rings:!rings ~informed:!informed_count;
      curve_marks curve next_mark ~now:t ~count:!informed_count;
      let a = Rng.int rng k in
      let u = pos.(a) in
      let v =
        if lazy_walk && Rng.bool rng then u else Graph.random_neighbor g rng u
      in
      if v <> u then begin
        let p = prev.(a) in
        let nx = next.(a) in
        if p >= 0 then next.(p) <- nx else head.(u) <- nx;
        if nx >= 0 then prev.(nx) <- p;
        let h = head.(v) in
        next.(a) <- h;
        prev.(a) <- -1;
        if h >= 0 then prev.(h) <- a;
        head.(v) <- a;
        pos.(a) <- v
      end;
      Obs.walker_move obs ~agent:a ~from_:u ~to_:v;
      exchange_at v;
      if !informed_count = k then begin
        finished := true;
        running := false
      end
    end
  done;
  curve_close curve next_mark ~finished:!finished ~finish:!now ~max_time
    ~count:!informed_count;
  loop_end trace ~informed:!informed_count ~rings:!rings;
  {
    Async_meet_exchange.broadcast_time = (if !finished then Some !now else None);
    rings = !rings;
    informed = !informed_count;
    agents = k;
    curve = Curve_buf.contents curve;
  }

(* Count-compressed meet-exchange: the rate-k ring picks a uniformly
   random walker as a vertex with probability proportional to its
   occupancy (a Fenwick tree over the per-vertex counts, O(log n) per ring)
   and then a class (uninformed / informed) by the count split, reusing
   the Fenwick residual as the second draw.  Exact in distribution, but not
   bit-identical to the dense kernel (agent identity is gone), and no
   per-agent obs hooks can fire. *)
(* lint: hot *)
let meet_exchange_sparse ?trace ~lazy_walk rng g ~source ~agents ~max_time =
  let n = Graph.n g in
  let clock = Rng.split rng in
  let counts = Placement.place_counts rng agents g in
  let uninf = counts in
  let inf = Array.make n 0 in
  (if Graph.min_degree g = 0 then
     for v = 0 to n - 1 do
       if uninf.(v) > 0 && Graph.degree g v = 0 then
         invalid_arg "Async_engine.meet_exchange: agent on isolated vertex"
     done);
  let fw = Fenwick.of_counts counts in
  let k = Fenwick.total fw in
  let informed_count = ref 0 in
  let source_active = ref true in
  let exchange_at v =
    let cu = uninf.(v) and ci = inf.(v) in
    let source_hit = !source_active && v = source && cu + ci > 0 in
    if (ci > 0 || source_hit) && cu > 0 then begin
      inf.(v) <- ci + cu;
      uninf.(v) <- 0;
      informed_count := !informed_count + cu
    end;
    if source_hit then source_active := false
  in
  exchange_at source;
  let rate = float_of_int k in
  let curve = Curve_buf.create ~hint:(curve_hint max_time) in
  Curve_buf.push curve !informed_count;
  let next_mark = ref 1 in
  let rings = ref 0 in
  let now = ref 0.0 in
  let residual = ref 0 in
  let finished = ref (!informed_count = k) in
  let running = ref (not !finished) in
  span_begin trace "async_engine.meet_exchange.loop";
  while !running do
    let t = !now +. Dist.exponential clock rate in
    if t > max_time then running := false
    else begin
      now := t;
      incr rings;
      ring_sample trace ~rings:!rings ~informed:!informed_count;
      curve_marks curve next_mark ~now:t ~count:!informed_count;
      (* the ringing walker: vertex ∝ occupancy, class by the count split;
         the Fenwick residual is already uniform on the vertex's population *)
      let u = Fenwick.find_into fw (Rng.int rng k) ~residual in
      let walker_uninformed = !residual < uninf.(u) in
      let v =
        if lazy_walk && Rng.bool rng then u else Graph.random_neighbor g rng u
      in
      if v <> u then begin
        (if walker_uninformed then begin
           uninf.(u) <- uninf.(u) - 1;
           uninf.(v) <- uninf.(v) + 1
         end
         else begin
           inf.(u) <- inf.(u) - 1;
           inf.(v) <- inf.(v) + 1
         end);
        Fenwick.add fw u (-1);
        Fenwick.add fw v 1
      end;
      exchange_at v;
      if !informed_count = k then begin
        finished := true;
        running := false
      end
    end
  done;
  curve_close curve next_mark ~finished:!finished ~finish:!now ~max_time
    ~count:!informed_count;
  loop_end trace ~informed:!informed_count ~rings:!rings;
  {
    Async_meet_exchange.broadcast_time = (if !finished then Some !now else None);
    rings = !rings;
    informed = !informed_count;
    agents = k;
    curve = Curve_buf.contents curve;
  }

let meet_exchange ?obs ?trace ?lazy_walk ?(walkers = Sparse_walkers.Dense) rng g
    ~source ~agents ~max_time =
  if source < 0 || source >= Graph.n g then
    invalid_arg "Async_engine.meet_exchange: source out of range";
  if not (max_time > 0.0) then
    invalid_arg "Async_engine.meet_exchange: max_time must be positive";
  (* resolved before any rng draw *)
  let lazy_walk =
    match lazy_walk with
    | Some b -> b
    | None -> Rumor_graph.Algo.is_bipartite g
  in
  if Sparse_walkers.use_sparse walkers agents g then
    meet_exchange_sparse ?trace ~lazy_walk rng g ~source ~agents ~max_time
  else meet_exchange_dense ?obs ?trace ~lazy_walk rng g ~source ~agents ~max_time
