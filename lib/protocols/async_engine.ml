module Rng = Rumor_prob.Rng
module Graph = Rumor_graph.Graph
module Placement = Rumor_agents.Placement
module Event_queue = Rumor_des.Event_queue
module Calendar_queue = Rumor_des.Calendar_queue
module Exp_stream = Rumor_des.Exp_stream
module Obs = Rumor_obs.Instrument
module Trace = Rumor_obs.Trace

(* The asynchronous DES kernels: continuous-time push / push-pull (the
   Async_push model) and meet-exchange (Async_meet_exchange), over flat
   state: a Bitset informed set, an unboxed event loop (Queue_intf.pop_into
   — no [Some (time, payload)] per ring), intrusive int-array agent lists,
   and Exp(1) clock gaps pre-drawn in batches (Exp_stream) instead of one
   sampler call per ring.

   Determinism contract: both kernels follow the clock-stream contract
   documented in Async_push's mli — the first [rng] operation splits off
   the clock generator, gaps are consumed from it in schedule order, all
   other draws stay on [rng] in event order.  Every result field
   (continuous broadcast time, ring count, integer-mark curve, obs
   streams) is therefore a pure function of the seed, for either queue
   backend and any batch size; the golden digests in
   test/golden_kernels.ml pin it bit for bit. *)

(* Sampling the queue/informed series every event would swamp the trace —
   the DES loops sample every 2^10 rings (a power of two so the test mask
   is exact), plus once at loop exit. *)
let trace_sample_mask = 1023

let[@inline] des_sample trace ~rings ~queue_size ~informed =
  match trace with
  | None -> ()
  | Some tr ->
      if rings land trace_sample_mask = 0 then begin
        Trace.counter tr "queue" queue_size;
        Trace.counter tr "informed" informed
      end

let[@inline] span_begin trace name =
  match trace with None -> () | Some tr -> Trace.begin_span tr name

let[@inline] des_loop_end trace ~informed ~rings =
  match trace with
  | None -> ()
  | Some tr ->
      Trace.end_span tr;
      Trace.counter tr "informed" informed;
      Rumor_obs.Counters.add
        (Rumor_obs.Counters.counter (Trace.counters tr) "rings")
        rings

(* Integer-mark curve shared by the DES loops: the curve value at mark m
   is the informed count after every event with time <= m.  Marks strictly
   below the current event's time are emitted just before the event
   applies (the DES pops in time order, so at that point every earlier
   event has been processed). *)
let[@inline] curve_marks curve next_mark ~now ~count =
  while now > float_of_int !next_mark do
    Curve_buf.push curve count;
    incr next_mark
  done

let curve_hint max_time =
  if max_time >= 1e15 then max_int else int_of_float (Float.ceil max_time)

(* completion: pad with the final count up to mark ceil(finish) *)
let curve_finish curve ~finish ~count =
  let last = int_of_float (Float.ceil finish) in
  while Curve_buf.length curve < last + 1 do
    Curve_buf.push curve count
  done;
  last

(* cap: every integer mark <= max_time is determined, pad through it *)
let curve_cap curve next_mark ~max_time ~count =
  while float_of_int !next_mark <= max_time do
    Curve_buf.push curve count;
    incr next_mark
  done

module Make (Q : Rumor_des.Queue_intf.S) = struct
  (* lint: hot *)
  let push ?obs ?trace ~batch rng g ~variant ~source ~max_time (queue : int Q.t) =
    let n = Graph.n g in
    let clock = Exp_stream.create ~batch (Rng.split rng) in
    let informed = Bitset.create n in
    Bitset.add informed source;
    let informed_count = ref 1 in
    let schedule u now = Q.push queue (now +. Exp_stream.next clock) u in
    (match variant with
    | Async_push.Async_push -> schedule source 0.0
    | Async_push.Async_push_pull ->
        for u = 0 to n - 1 do
          schedule u 0.0
        done);
    let curve = Curve_buf.create ~hint:(curve_hint max_time) in
    Curve_buf.push curve !informed_count;
    let next_mark = ref 1 in
    let slot = ref 0 in
    let rings = ref 0 in
    let finish_time = ref None in
    let running = ref true in
    span_begin trace "async_engine.push.loop";
    while !running do
      let now = Q.pop_into queue slot in
      if Float.is_nan now then running := false
      else if now > max_time then running := false
      else begin
        incr rings;
        des_sample trace ~rings:!rings ~queue_size:(Q.size queue)
          ~informed:!informed_count;
        curve_marks curve next_mark ~now ~count:!informed_count;
        let u = !slot in
        let v = Graph.random_neighbor g rng u in
        Obs.contact obs u v;
        (match variant with
        | Async_push.Async_push ->
            if not (Bitset.mem informed v) then begin
              Bitset.add informed v;
              incr informed_count;
              schedule v now
            end
        | Async_push.Async_push_pull ->
            if Bitset.mem informed u && not (Bitset.mem informed v) then begin
              Bitset.add informed v;
              incr informed_count
            end
            else if Bitset.mem informed v && not (Bitset.mem informed u) then begin
              Bitset.add informed u;
              incr informed_count
            end);
        if !informed_count = n then begin
          finish_time := Some now;
          running := false
        end
        else schedule u now
      end
    done;
    (match !finish_time with
    | Some f -> ignore (curve_finish curve ~finish:f ~count:!informed_count)
    | None -> curve_cap curve next_mark ~max_time ~count:!informed_count);
    des_loop_end trace ~informed:!informed_count ~rings:!rings;
    {
      Async_push.broadcast_time = !finish_time;
      rings = !rings;
      informed = !informed_count;
      curve = Curve_buf.contents curve;
    }

  (* lint: hot *)
  let meet_exchange ?obs ?trace ~batch ~lazy_walk rng g ~source ~agents
      ~max_time (queue : int Q.t) =
    let n = Graph.n g in
    let clock = Exp_stream.create ~batch (Rng.split rng) in
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
    let schedule a now = Q.push queue (now +. Exp_stream.next clock) a in
    for a = 0 to k - 1 do
      schedule a 0.0
    done;
    let curve = Curve_buf.create ~hint:(curve_hint max_time) in
    Curve_buf.push curve !informed_count;
    let next_mark = ref 1 in
    let slot = ref 0 in
    let rings = ref 0 in
    let finish = ref None in
    let running = ref (!informed_count < k) in
    span_begin trace "async_engine.meet_exchange.loop";
    while !running do
      let now = Q.pop_into queue slot in
      if Float.is_nan now then running := false
      else if now > max_time then running := false
      else begin
        incr rings;
        des_sample trace ~rings:!rings ~queue_size:(Q.size queue)
          ~informed:!informed_count;
        curve_marks curve next_mark ~now ~count:!informed_count;
        let a = !slot in
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
          finish := Some now;
          running := false
        end
        else schedule a now
      end
    done;
    let finish = if !informed_count = k && Option.is_none !finish then Some 0.0 else !finish in
    (match finish with
    | Some f -> ignore (curve_finish curve ~finish:f ~count:!informed_count)
    | None -> curve_cap curve next_mark ~max_time ~count:!informed_count);
    des_loop_end trace ~informed:!informed_count ~rings:!rings;
    {
      Async_meet_exchange.broadcast_time = finish;
      rings = !rings;
      informed = !informed_count;
      agents = k;
      curve = Curve_buf.contents curve;
    }
end

module On_heap = Make (Event_queue)
module On_calendar = Make (Calendar_queue)

(* Count-compressed asynchronous meet-exchange: no event queue at all.  The
   superposition of k unit-rate Poisson clocks is one rate-k Poisson
   process whose rings pick a uniformly random walker — i.e. a vertex with
   probability proportional to its occupancy (a Fenwick tree over the
   per-vertex counts, O(log n) per ring) and then a class (uninformed /
   informed) by the count split, reusing the Fenwick residual as the
   second draw.  Exact in distribution, but not bit-identical to the dense
   kernel (agent identity and the per-agent queue order are gone), and no
   per-agent obs hooks can fire. *)
(* lint: hot *)
let meet_exchange_sparse ?trace ~batch ~lazy_walk rng g ~source ~agents
    ~max_time =
  let n = Graph.n g in
  let clock = Exp_stream.create ~batch (Rng.split rng) in
  let counts = Placement.place_counts rng agents g in
  let uninf = counts in
  let inf = Array.make n 0 in
  (if Graph.min_degree g = 0 then
     for v = 0 to n - 1 do
       if uninf.(v) > 0 && Graph.degree g v = 0 then
         invalid_arg "Async_engine.meet_exchange: agent on isolated vertex"
     done);
  let fw = Rumor_prob.Fenwick.of_counts counts in
  let k = Rumor_prob.Fenwick.total fw in
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
  let finish_time = ref 0.0 in
  let finished = ref false in
  let running = ref (!informed_count < k) in
  span_begin trace "async_engine.meet_exchange.loop";
  while !running do
    let t = !now +. (Exp_stream.next clock /. rate) in
    if t > max_time then running := false
    else begin
      now := t;
      incr rings;
      des_sample trace ~rings:!rings ~queue_size:0 ~informed:!informed_count;
      curve_marks curve next_mark ~now:t ~count:!informed_count;
      (* the ringing walker: vertex ∝ occupancy, class by the count split;
         the Fenwick residual is already uniform on the vertex's population *)
      let u, residual = Rumor_prob.Fenwick.find fw (Rng.int rng k) in
      let walker_uninformed = residual < uninf.(u) in
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
        Rumor_prob.Fenwick.add fw u (-1);
        Rumor_prob.Fenwick.add fw v 1
      end;
      exchange_at v;
      if !informed_count = k then begin
        finish_time := t;
        finished := true;
        running := false
      end
    end
  done;
  let finish =
    if !finished then Some !finish_time
    else if !informed_count = k then Some 0.0
    else None
  in
  (match finish with
  | Some f -> ignore (curve_finish curve ~finish:f ~count:!informed_count)
  | None -> curve_cap curve next_mark ~max_time ~count:!informed_count);
  des_loop_end trace ~informed:!informed_count ~rings:!rings;
  {
    Async_meet_exchange.broadcast_time = finish;
    rings = !rings;
    informed = !informed_count;
    agents = k;
    curve = Curve_buf.contents curve;
  }

type queue = Heap | Calendar

let default_batch = 4096

let[@inline] put_stats stats v =
  match stats with Some s -> s := v | None -> ()

let push ?obs ?trace ?(queue = Calendar) ?(batch = default_batch) ?stats rng g
    ~variant ~source ~max_time =
  let n = Graph.n g in
  if source < 0 || source >= n then
    invalid_arg "Async_engine.push: source out of range";
  if not (max_time > 0.0) then
    invalid_arg "Async_engine.push: max_time must be positive";
  if batch < 1 then invalid_arg "Async_engine.push: batch < 1";
  match queue with
  | Heap ->
      put_stats stats None;
      On_heap.push ?obs ?trace ~batch rng g ~variant ~source ~max_time
        (Event_queue.create ())
  | Calendar ->
      let q = Calendar_queue.create () in
      let r =
        On_calendar.push ?obs ?trace ~batch rng g ~variant ~source ~max_time q
      in
      put_stats stats (Some (Calendar_queue.stats q));
      r

let meet_exchange ?obs ?trace ?lazy_walk ?(walkers = Sparse_walkers.Dense)
    ?(queue = Calendar) ?(batch = default_batch) ?stats rng g ~source ~agents
    ~max_time =
  let n = Graph.n g in
  if source < 0 || source >= n then
    invalid_arg "Async_engine.meet_exchange: source out of range";
  if not (max_time > 0.0) then
    invalid_arg "Async_engine.meet_exchange: max_time must be positive";
  if batch < 1 then invalid_arg "Async_engine.meet_exchange: batch < 1";
  (* resolved before any rng draw *)
  let lazy_walk =
    match lazy_walk with
    | Some b -> b
    | None -> Rumor_graph.Algo.is_bipartite g
  in
  if Sparse_walkers.use_sparse walkers agents g then begin
    ignore obs;
    put_stats stats None;
    meet_exchange_sparse ?trace ~batch ~lazy_walk rng g ~source ~agents
      ~max_time
  end
  else
  match queue with
  | Heap ->
      put_stats stats None;
      On_heap.meet_exchange ?obs ?trace ~batch ~lazy_walk rng g ~source ~agents
        ~max_time (Event_queue.create ())
  | Calendar ->
      let q = Calendar_queue.create () in
      let r =
        On_calendar.meet_exchange ?obs ?trace ~batch ~lazy_walk rng g ~source
          ~agents ~max_time q
      in
      put_stats stats (Some (Calendar_queue.stats q));
      r
