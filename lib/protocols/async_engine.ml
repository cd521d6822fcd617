module Rng = Rumor_prob.Rng
module Dist = Rumor_prob.Dist
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
   - async push-pull: rate n, the ringer [Rng.below rng n];
   - meet-exchange: rate k, the ringer [Rng.below rng k] by agent id.

   Determinism contract: both kernels follow the clock-stream contract
   documented in Async_push's mli — the first [rng] operation splits off
   the clock generator, each ring draws one Exp(1) gap from it (one
   ziggurat draw, one or more outputs) divided by the current total rate,
   all other draws stay on [rng] in event order.
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
  (* the ring loop draws unchecked (DESIGN.md, "Kernel loops"), so the
     callers it can draw are checked here, before any ring: async push's
     are the source and vertices their neighbours informed, async
     push-pull's are every vertex.  A run on one vertex never rings. *)
  let callers_ok =
    match variant with
    | Async_push.Async_push -> Graph.degree g source > 0
    | Async_push.Async_push_pull -> Graph.min_degree g > 0
  in
  if n > 1 && not callers_ok then
    invalid_arg "Graph.random_neighbor: isolated vertex";
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
          let u = pool.(Rng.below rng !informed_count) in
          let v = Graph.unsafe_random_neighbor g rng u in
          Obs.contact obs u v;
          if not (Bitset.mem informed v) then begin
            Bitset.add informed v;
            pool.(!informed_count) <- v;
            incr informed_count
          end
      | Async_push.Async_push_pull ->
          let u = Rng.below rng n in
          let v = Graph.unsafe_random_neighbor g rng u in
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

(* Meet-exchange keeps no per-agent class.  After every ring each occupied
   vertex holds only informed agents or only uninformed ones, because an
   arrival at a vertex of the other class informs everyone there at once;
   so an agent's class is one bit of its vertex, and a meeting is an O(1)
   test on the arrival vertex.  [cell.(v)] packs both into one int:
   2 * (agents at v) + (1 if they are informed).  The draws are the
   per-agent ones — the ringer by id, then the lazy coin and the
   neighbour — so [?walkers] has nothing left to select. *)
(* lint: hot *)
let meet_exchange ?obs ?trace ?lazy_walk ?walkers:(_ : Sparse_walkers.mode option)
    rng g ~source ~agents ~max_time =
  let n = Graph.n g in
  if source < 0 || source >= n then
    invalid_arg "Async_engine.meet_exchange: source out of range";
  if not (max_time > 0.0) then
    invalid_arg "Async_engine.meet_exchange: max_time must be positive";
  (* resolved before any rng draw *)
  let lazy_walk =
    match lazy_walk with
    | Some b -> b
    | None -> Rumor_graph.Algo.is_bipartite g
  in
  let clock = Rng.split rng in
  let pos = Placement.place rng agents g in
  let k = Array.length pos in
  (* the ring loop draws the ringer and its step unchecked: the agent count
     must be a valid [Rng.below] bound, and no agent may stand on an
     isolated vertex (a walk then never reaches one).  A graph with positive
     min degree (cached) has no isolated vertex. *)
  if k > 1 lsl 30 then
    invalid_arg "Async_engine.meet_exchange: more than 2^30 agents";
  if Graph.min_degree g = 0 then
    Array.iter
      (fun v ->
        if Graph.degree g v = 0 then
          invalid_arg "Async_engine.meet_exchange: agent on isolated vertex")
      pos;
  let cell = Array.make n 0 in
  Array.iter (fun v -> cell.(v) <- cell.(v) + 2) pos;
  (* With [?obs] attached, intrusive per-vertex agent lists in three int
     arrays fix the order of the contact stream: insertion at the head,
     removal keeping the relative order of the others, built by ascending
     agent id, and the agents at a vertex informed in list order. *)
  let listed = Option.is_some obs in
  let head = Array.make (if listed then n else 0) (-1) in
  let next = Array.make (if listed then k else 0) (-1) in
  let prev = Array.make (if listed then k else 0) (-1) in
  if listed then
    for a = 0 to k - 1 do
      let v = pos.(a) in
      let h = head.(v) in
      next.(a) <- h;
      if h >= 0 then prev.(h) <- a;
      head.(v) <- a
    done;
  let rec contacts_from v a =
    if a >= 0 then begin
      Obs.contact obs v a;
      contacts_from v next.(a)
    end
  in
  (* the t = 0 hand-off: the agents placed on the source learn the rumour;
     if there are none, the first agent to reach the source does *)
  let informed_count = ref 0 in
  let source_active = ref (cell.(source) = 0) in
  if cell.(source) > 0 then begin
    informed_count := cell.(source) lsr 1;
    cell.(source) <- cell.(source) lor 1;
    if listed then contacts_from source head.(source)
  end;
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
      let a = Rng.below rng k in
      let u = pos.(a) in
      let v =
        if lazy_walk && Rng.bool rng then u
        else Graph.unsafe_random_neighbor g rng u
      in
      let cu = cell.(u) in
      let bit = cu land 1 in
      (* One update path, without branches on the cell classes: a lazy
         stay (v = u) departs and re-arrives, which leaves cell.(u) as it
         was and informs no one.  The departure keeps the class bit while
         others remain; the last agent to leave takes it with it. *)
      pos.(a) <- v;
      cell.(u) <- (cu - 2) land -Bool.to_int (cu >= 4);
      if listed && v <> u then begin
        let p = prev.(a) in
        let nx = next.(a) in
        if p >= 0 then next.(p) <- nx else head.(u) <- nx;
        if nx >= 0 then prev.(nx) <- p;
        let h = head.(v) in
        next.(a) <- h;
        prev.(a) <- -1;
        if h >= 0 then prev.(h) <- a;
        head.(v) <- a
      end;
      Obs.walker_move obs ~agent:a ~from_:u ~to_:v;
      let cv = cell.(v) in
      if !source_active && v = source then begin
        (* only an empty source can still be active, so cv = 0 here *)
        source_active := false;
        cell.(v) <- 3;
        if bit = 0 then begin
          incr informed_count;
          Obs.contact obs v a
        end
      end
      else begin
        (* [diff] = 1 iff the arrival meets agents of the other class; the
           vertex is then informed, and so are the cv / 2 agents there (an
           informed arrival) or the arrival itself (an uninformed one) *)
        let diff = Bool.to_int (cv <> 0) land ((cv lxor bit) land 1) in
        cell.(v) <- (cv + 2) lor (bit lor diff);
        informed_count := !informed_count + (diff * ((bit * (cv lsr 1)) + 1 - bit));
        if listed && diff = 1 then
          if bit = 1 then
            (* an informed arrival informs everyone listed after it *)
            contacts_from v next.(a)
          else Obs.contact obs v a
      end;
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
