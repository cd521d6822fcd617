module Rng = Rumor_prob.Rng

(* Neighbour slots are 4-byte native-endian vertex ids in one [Bytes]: half
   the memory of an [int array], and the major GC does not scan them.  Every
   access goes through these bounds-checked primitives; [slot] and
   [set_slot] index by slot, not by byte. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let[@inline] slot adj i = Int32.to_int (get32 adj (4 * i))
let[@inline] set_slot adj i v = set32 adj (4 * i) (Int32.of_int v)

(* slots are read back as signed 32-bit ints, so ids run up to 2^31 - 1 *)
let max_vertices = 1 lsl 31

type t = {
  n : int;
  m : int;                (* number of undirected edges *)
  offsets : int array;    (* length n+1; u's neighbours fill slots offsets.(u) .. offsets.(u+1)-1.
                             ints, not 32-bit slots: 2m can pass 2^31 *)
  adj : Bytes.t;          (* 2m slots, sorted within each vertex slice *)
  min_deg : int;          (* cached at construction so min_degree is O(1) *)
}

(* offsets is already a degree prefix sum, so the min degree falls out of
   one pass at construction time — every later min_degree call is O(1). *)
let min_deg_of_offsets nv offsets =
  if nv = 0 then 0
  else begin
    let d = ref max_int in
    for u = 0 to nv - 1 do
      let du = offsets.(u + 1) - offsets.(u) in
      if du < !d then d := du
    done;
    !d
  end

let n g = g.n
let num_edges g = g.m
let[@inline] degree g u = g.offsets.(u + 1) - g.offsets.(u)
let[@inline] neighbor g u i = slot g.adj (g.offsets.(u) + i)

let[@inline] random_neighbor g rng u =
  let lo = g.offsets.(u) in
  let d = g.offsets.(u + 1) - lo in
  if d = 0 then invalid_arg "Graph.random_neighbor: isolated vertex";
  slot g.adj (lo + Rng.int rng d)

let iter_neighbors g u f =
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    f (slot g.adj i)
  done

let fold_neighbors g u f init =
  let acc = ref init in
  for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
    acc := f !acc (slot g.adj i)
  done;
  !acc

let iter_edges g f =
  for u = 0 to g.n - 1 do
    for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      let v = slot g.adj i in
      if u < v then f u v
    done
  done

(* Binary search for v in the sorted slice of u; returns the slot index. *)
let find_arc g u v =
  let lo = ref g.offsets.(u) and hi = ref (g.offsets.(u + 1) - 1) in
  let result = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = slot g.adj mid in
    if w = v then begin
      result := mid;
      lo := !hi + 1
    end
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let mem_edge g u v = find_arc g u v >= 0

let edge_index g u v =
  let i = find_arc g u v in
  if i < 0 then raise Not_found else i

let arc_count g = 2 * g.m

let[@inline] arc_head g i = slot g.adj i

let csr_bytes g = (Sys.word_size / 8 * Array.length g.offsets) + Bytes.length g.adj

let min_degree g = g.min_deg

let max_degree g =
  let d = ref 0 in
  for u = 0 to g.n - 1 do
    if degree g u > !d then d := degree g u
  done;
  !d

let is_regular g = g.n = 0 || min_degree g = max_degree g

let regular_degree g = if is_regular g && g.n > 0 then Some (degree g 0) else None

let total_degree g = 2 * g.m

(* Sort every CSR slice in place and reject duplicate edges.  One scan finds
   each slice's first slot that does not rise above its predecessor; a
   strictly increasing slice is already sorted and duplicate-free, so a
   generator that emits its edges in ascending (smaller, larger) order never
   sorts.  Otherwise small slices finish the insertion sort from that slot on
   (no allocation — the common case for the sparse huge graphs the streaming
   builder targets), long ones are sorted in a scratch int array, and the
   duplicate check runs over the sorted slice. *)
let sort_and_check_slices ~n:nv offsets adj =
  for u = 0 to nv - 1 do
    let lo = offsets.(u) and hi = offsets.(u + 1) in
    let first = ref (lo + 1) in
    while !first < hi && slot adj (!first - 1) < slot adj !first do
      incr first
    done;
    if !first < hi then begin
      let len = hi - lo in
      if len > 32 then begin
        let slice = Array.make len 0 in
        for i = 0 to len - 1 do
          slice.(i) <- slot adj (lo + i)
        done;
        Array.sort Int.compare slice;
        for i = 0 to len - 1 do
          set_slot adj (lo + i) slice.(i)
        done
      end
      else
        for i = !first to hi - 1 do
          let x = slot adj i in
          let j = ref (i - 1) in
          while !j >= lo && slot adj !j > x do
            set_slot adj (!j + 1) (slot adj !j);
            decr j
          done;
          set_slot adj (!j + 1) x
        done;
      for i = lo + 1 to hi - 1 do
        if slot adj i = slot adj (i - 1) then
          invalid_arg
            (Printf.sprintf "Graph.Builder.finish: duplicate edge (%d,%d)" u (slot adj i))
      done
    end
  done

module Builder = struct
  (* Endpoints accumulate in two flat Bigarrays (2 words per edge, off the
     OCaml heap, no per-edge boxing) that double on demand; [finish] runs the
     usual two-pass CSR construction directly off them.  This is the
     streaming path the generators feed: a huge random graph is built with
     exactly one materialization of its edges. *)
  type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  module Trace = Rumor_obs.Trace

  type t = {
    bn : int;
    mutable us : buf;
    mutable vs : buf;
    mutable len : int;
    mutable finished : bool;
    btrace : Trace.t option;
  }

  let make_buf capacity = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout capacity

  let create ?trace ?(capacity = 1024) ~n () =
    if n < 0 then invalid_arg "Graph.Builder.create: negative vertex count";
    if n > max_vertices then
      invalid_arg
        (Printf.sprintf
           "Graph.Builder.create: %d vertices; ids must fit in 32 bits (n <= %d)" n
           max_vertices);
    let capacity = max 1 capacity in
    (* the edge-generation span stays open from [create] to [finish]: it
       covers whatever loop the caller feeds [add_edge] from *)
    (match trace with
    | None -> ()
    | Some tr -> Trace.begin_span tr "graph.edge_gen");
    {
      bn = n;
      us = make_buf capacity;
      vs = make_buf capacity;
      len = 0;
      finished = false;
      btrace = trace;
    }

  let vertex_count b = b.bn
  let edge_count b = b.len

  let grow b =
    let old = Bigarray.Array1.dim b.us in
    let us = make_buf (2 * old) and vs = make_buf (2 * old) in
    Bigarray.Array1.blit b.us (Bigarray.Array1.sub us 0 old);
    Bigarray.Array1.blit b.vs (Bigarray.Array1.sub vs 0 old);
    b.us <- us;
    b.vs <- vs

  let add_edge b u v =
    if b.finished then invalid_arg "Graph.Builder.add_edge: builder already finished";
    if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
      invalid_arg
        (Printf.sprintf "Graph.Builder.add_edge: endpoint out of range (%d,%d), n=%d"
           u v b.bn);
    if u = v then
      invalid_arg (Printf.sprintf "Graph.Builder.add_edge: self-loop at %d" u);
    if b.len = Bigarray.Array1.dim b.us then grow b;
    b.us.{b.len} <- u;
    b.vs.{b.len} <- v;
    b.len <- b.len + 1

  let finish b =
    if b.finished then invalid_arg "Graph.Builder.finish: builder already finished";
    b.finished <- true;
    (match b.btrace with
    | None -> ()
    | Some tr ->
        Trace.end_span tr (* graph.edge_gen *);
        Rumor_obs.Counters.add
          (Rumor_obs.Counters.counter (Trace.counters tr) "edges_built")
          b.len;
        Trace.begin_span tr "graph.csr_fill");
    let nv = b.bn and m = b.len in
    (* degrees counted one place to the right, then prefix-summed in place *)
    let offsets = Array.make (nv + 1) 0 in
    for i = 0 to m - 1 do
      let u = b.us.{i} + 1 and v = b.vs.{i} + 1 in
      offsets.(u) <- offsets.(u) + 1;
      offsets.(v) <- offsets.(v) + 1
    done;
    for u = 1 to nv do
      offsets.(u) <- offsets.(u) + offsets.(u - 1)
    done;
    (* every slot is written below: the degrees sum to 2m *)
    let adj = Bytes.create (4 * 2 * m) in
    let cursor = Array.sub offsets 0 nv in
    for i = 0 to m - 1 do
      let u = b.us.{i} and v = b.vs.{i} in
      set_slot adj cursor.(u) v;
      cursor.(u) <- cursor.(u) + 1;
      set_slot adj cursor.(v) u;
      cursor.(v) <- cursor.(v) + 1
    done;
    (* release the endpoint buffers before the slice pass; peak memory is
       CSR + endpoints, never CSR + endpoints + a second edge list *)
    b.us <- make_buf 1;
    b.vs <- make_buf 1;
    (match b.btrace with
    | None -> ()
    | Some tr ->
        Trace.end_span tr (* graph.csr_fill *);
        Trace.begin_span tr "graph.sort");
    sort_and_check_slices ~n:nv offsets adj;
    (match b.btrace with None -> () | Some tr -> Trace.end_span tr);
    { n = nv; m; offsets; adj; min_deg = min_deg_of_offsets nv offsets }
end

let of_edge_array ~n edges =
  let b = Builder.create ~capacity:(Array.length edges) ~n () in
  Array.iter (fun (u, v) -> Builder.add_edge b u v) edges;
  Builder.finish b

let of_edges ~n edges = of_edge_array ~n (Array.of_list edges)

let validate g =
  if Array.length g.offsets <> g.n + 1 then
    invalid_arg "Graph.validate: bad offsets length";
  if g.offsets.(0) <> 0 || g.offsets.(g.n) <> 2 * g.m then
    invalid_arg "Graph.validate: bad offset endpoints";
  if Bytes.length g.adj <> 4 * 2 * g.m then invalid_arg "Graph.validate: bad slot count";
  for u = 0 to g.n - 1 do
    if g.offsets.(u + 1) < g.offsets.(u) then
      invalid_arg "Graph.validate: decreasing offsets";
    for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      let v = slot g.adj i in
      if v < 0 || v >= g.n then invalid_arg "Graph.validate: neighbor out of range";
      if v = u then invalid_arg "Graph.validate: self-loop";
      if i > g.offsets.(u) && slot g.adj (i - 1) >= v then
        invalid_arg "Graph.validate: unsorted or duplicate adjacency";
      if not (mem_edge g v u) then invalid_arg "Graph.validate: asymmetric edge"
    done
  done

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d, deg=[%d..%d]%s)" g.n g.m (min_degree g)
    (max_degree g)
    (if is_regular g then ", regular" else "")
