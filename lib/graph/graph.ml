module Rng = Rumor_prob.Rng

(* Neighbour slots are 3-byte vertex ids in one [Bytes], little-endian
   whatever the host: slot i fills bytes 3i .. 3i+2, and one pad byte ends
   the buffer, so every slot reads as one (unaligned) 4-byte load masked
   to 24 bits.  That is three eighths of an [int array]'s memory, and the
   major GC does not scan it.  A write must not touch the next slot's
   bytes, so it is a 16-bit store and a byte store.  [slot] and [set_slot]
   are bounds-checked (on a buffer of 3k + 1 bytes, the 4-byte load at 3i
   and the byte store at 3i + 2 fit exactly when 0 <= i < k); the [_u]
   forms are not, and serve the loops whose slot indices are in range by
   construction: [unsafe_random_neighbor], [check_csr] after the offsets
   pass, and [Builder.fill_slots].  All index by slot, not by byte. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap16 : int -> int = "%bswap16"
external big_endian : unit -> bool = "%big_endian"

(* [big_endian ()] is a compile-time constant: one arm of each folds away *)
let[@inline] le32 x = if big_endian () then swap32 x else x
let[@inline] le16 x = if big_endian () then swap16 x else x
let[@inline] low24 x = Int32.to_int (le32 x) land 0xFF_FFFF
let[@inline] slot adj i = low24 (get32 adj (3 * i))
let[@inline] slot_u adj i = low24 (get32u adj (3 * i))

let[@inline] set_slot adj i v =
  set16 adj (3 * i) (le16 (v land 0xFFFF));
  Bytes.set adj ((3 * i) + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF))

let[@inline] set_slot_u adj i v =
  set16u adj (3 * i) (le16 (v land 0xFFFF));
  Bytes.unsafe_set adj ((3 * i) + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF))

(* ids are 24-bit slots, so they run up to 2^24 - 1 *)
let max_vertices = 1 lsl 24

module Slots = struct
  type t = Bytes.t

  let create arcs =
    if arcs < 0 then invalid_arg "Graph.Slots.create: negative slot count";
    let b = Bytes.create ((3 * arcs) + 1) in
    (* the pad byte is read, masked off, by the last slot's load: zero it so
       the buffer's contents are fully determined *)
    Bytes.unsafe_set b (3 * arcs) '\000';
    b

  let get = slot

  (* the error is raised directly, as in [Rng.int]: a call to a cold
     helper, even one that never returns, would sit inside every caller's
     fill loop *)
  let[@inline] set b i v =
    if v < 0 || v >= max_vertices then
      raise
        (Invalid_argument (Printf.sprintf "Graph.Slots.set: id %d outside [0, 2^24)" v));
    set_slot b i v
end

type t = {
  n : int;
  m : int;                (* number of undirected edges *)
  offsets : int array;    (* length n+1; u's neighbours fill slots offsets.(u) .. offsets.(u+1)-1.
                             ints, not 4-byte: 2m can pass 2^31 *)
  adj : Slots.t;          (* 2m slots, sorted within each vertex slice *)
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

(* The kernels' per-contact draw: no check at all, inlined into their
   loops with no call left on a returning path (see [Rng.below]).  The
   caller guarantees 0 <= u < n and deg u >= 1, once per run; then
   lo + r < offsets.(u+1) <= 2m, the slot count, for every graph a
   constructor returns, and deg u < 2^24 is a valid [Rng.below] bound. *)
(* lint: hot *)
let[@inline] unsafe_random_neighbor g rng u =
  let lo = Array.unsafe_get g.offsets u in
  let d = Array.unsafe_get g.offsets (u + 1) - lo in
  slot_u g.adj (lo + Rng.below rng d)

(* [unsafe_random_neighbor] behind its checks: the bounds-checked offset
   reads, then the isolated case, raised directly *)
(* lint: hot *)
let[@inline] random_neighbor g rng u =
  if degree g u = 0 then raise (Invalid_argument "Graph.random_neighbor: isolated vertex");
  unsafe_random_neighbor g rng u

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

let[@inline] first_arc g u = g.offsets.(u)

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

(* Sort every CSR slice in place and reject duplicate edges; [Builder.finish]
   skips this for a strictly ascending (smaller, larger) stream.  One scan
   finds each slice's first slot that does not rise above its predecessor; a
   strictly increasing slice is already sorted and duplicate-free, so it is
   left alone.  Otherwise small slices finish the insertion sort from that
   slot on (no allocation — the common case for the sparse huge graphs the
   streaming builder targets), long ones are sorted in a scratch int array,
   and the duplicate check runs over the sorted slice. *)
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
  (* Endpoints sit interleaved in one int32 Bigarray, u at index 2i and v at
     2i+1 (8 bytes an edge, off the OCaml heap, no per-edge boxing), which
     doubles on demand; [finish] runs the two-pass CSR construction directly
     off it.  This is the streaming path the generators feed: a huge random
     graph is built with exactly one materialization of its edges.

     [add_edge] also keeps the key u*n + v of the last edge (at most
     n^2 - 1 <= 2^62 - 1 = max_int, so it never wraps).  [disorder] turns
     negative, without a branch, at the first edge whose key is not above
     the last one or whose u is not below its v.  A stream that never does
     fills every slice sorted and duplicate-free: vertex w's slice gets its
     lower neighbours x from the edges (x, w), in increasing x, before its
     upper neighbours y from the edges (w, y), in increasing y, because
     x*n + w < w*n + y.  [finish] then skips the slice scan. *)
  type buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  module Trace = Rumor_obs.Trace

  type t = {
    bn : int;
    mutable lim : int;  (* [bn] while open, 0 once finished: every endpoint is below it *)
    mutable buf : buf;  (* 2 [len] endpoints in use; its length is even *)
    mutable len : int;  (* edges recorded *)
    mutable last : int;  (* key of the last edge; -1 before the first *)
    mutable disorder : int;  (* < 0 once the stream stops ascending strictly with u < v *)
    mutable finished : bool;
    btrace : Trace.t option;
  }

  let make_buf edges = Bigarray.Array1.create Bigarray.Int32 Bigarray.C_layout (2 * edges)

  let create ?trace ?(capacity = 1024) ~n () =
    if n < 0 then invalid_arg "Graph.Builder.create: negative vertex count";
    if n > max_vertices then
      invalid_arg
        (Printf.sprintf
           "Graph.Builder.create: %d vertices; ids must fit in 24 bits (n <= %d)" n
           max_vertices);
    let capacity = max 1 capacity in
    (* the edge-generation span stays open from [create] to [finish]: it
       covers whatever loop the caller feeds [add_edge] from *)
    (match trace with
    | None -> ()
    | Some tr -> Trace.begin_span tr "graph.edge_gen");
    {
      bn = n;
      lim = n;
      buf = make_buf capacity;
      len = 0;
      last = -1;
      disorder = 0;
      finished = false;
      btrace = trace;
    }

  let vertex_count b = b.bn
  let edge_count b = b.len

  let grow b =
    let old = Bigarray.Array1.dim b.buf in
    (* room for [old] edges: twice the [old / 2] held now *)
    let buf = make_buf old in
    Bigarray.Array1.blit b.buf (Bigarray.Array1.sub buf 0 old);
    b.buf <- buf

  (* the cold half of [add_edge]'s guard: name the check that failed *)
  let[@inline never] reject b u v =
    if b.finished then invalid_arg "Graph.Builder.add_edge: builder already finished";
    if u < 0 || u >= b.bn || v < 0 || v >= b.bn then
      invalid_arg
        (Printf.sprintf "Graph.Builder.add_edge: endpoint out of range (%d,%d), n=%d"
           u v b.bn);
    invalid_arg (Printf.sprintf "Graph.Builder.add_edge: self-loop at %d" u)

  (* lint: hot *)
  let[@inline] add_edge b u v =
    if u < 0 || v < 0 || u >= b.lim || v >= b.lim || u = v then reject b u v;
    let i = 2 * b.len in
    if i = Bigarray.Array1.dim b.buf then grow b;
    (* i is even and below the even buffer length, so i + 1 is in range;
       0 <= u, v < n <= 2^24 fit an int32 *)
    let buf = b.buf in
    Bigarray.Array1.unsafe_set buf i (Int32.of_int u);
    Bigarray.Array1.unsafe_set buf (i + 1) (Int32.of_int v);
    b.len <- b.len + 1;
    let key = (u * b.bn) + v in
    b.disorder <- b.disorder lor (key - b.last - 1) lor (v - u - 1);
    b.last <- key

  (* [finish]'s passes read only the endpoints [add_edge] stored, each
     already checked to lie in [0, n): index u + 1 of the (n+1)-slot
     [offsets] is in range, and so is every slot the fill writes (below) —
     hence the unchecked accesses. *)

  (* lint: hot *)
  let count_degrees (buf : buf) ends offsets =
    for i = 0 to ends - 1 do
      let x = Int32.to_int (Bigarray.Array1.unsafe_get buf i) + 1 in
      Array.unsafe_set offsets x (Array.unsafe_get offsets x + 1)
    done

  (* degrees at [offsets.(u+1)] become first slots there: u's slice starts
     at the sum of the degrees below u *)
  (* lint: hot *)
  let first_slots offsets nv =
    let start = ref 0 in
    for u = 1 to nv do
      let d = offsets.(u) in
      offsets.(u) <- !start;
      start := !start + d
    done

  (* [offsets.(u+1)] is u's fill cursor: it starts at u's first slot and is
     advanced once per endpoint u, deg u times in all, so it stays inside
     u's slice and ends on the next slice's first slot — [offsets.(u+1)] of
     the finished CSR. *)
  (* lint: hot *)
  let fill_slots (buf : buf) m offsets adj =
    for e = 0 to m - 1 do
      let u = Int32.to_int (Bigarray.Array1.unsafe_get buf (2 * e))
      and v = Int32.to_int (Bigarray.Array1.unsafe_get buf ((2 * e) + 1)) in
      let cu = Array.unsafe_get offsets (u + 1) in
      set_slot_u adj cu v;
      Array.unsafe_set offsets (u + 1) (cu + 1);
      let cv = Array.unsafe_get offsets (v + 1) in
      set_slot_u adj cv u;
      Array.unsafe_set offsets (v + 1) (cv + 1)
    done

  let finish b =
    if b.finished then invalid_arg "Graph.Builder.finish: builder already finished";
    b.finished <- true;
    b.lim <- 0;
    (match b.btrace with
    | None -> ()
    | Some tr ->
        Trace.end_span tr (* graph.edge_gen *);
        Rumor_obs.Counters.add
          (Rumor_obs.Counters.counter (Trace.counters tr) "edges_built")
          b.len;
        Trace.begin_span tr "graph.csr_fill");
    let nv = b.bn and m = b.len and buf = b.buf in
    let offsets = Array.make (nv + 1) 0 in
    count_degrees buf (2 * m) offsets;
    first_slots offsets nv;
    (* every slot is written: the degrees sum to 2m *)
    let adj = Slots.create (2 * m) in
    fill_slots buf m offsets adj;
    (* release the endpoint buffer before the slice pass; peak memory is
       CSR + endpoints, never CSR + endpoints + a second edge list *)
    b.buf <- make_buf 1;
    (match b.btrace with
    | None -> ()
    | Some tr ->
        Trace.end_span tr (* graph.csr_fill *);
        Trace.begin_span tr "graph.sort");
    (* empty for a strictly ascending (u < v) stream: sorted and
       duplicate-free by construction *)
    if b.disorder < 0 then sort_and_check_slices ~n:nv offsets adj;
    (match b.btrace with None -> () | Some tr -> Trace.end_span tr);
    { n = nv; m; offsets; adj; min_deg = min_deg_of_offsets nv offsets }
end

(* Every invariant the [Builder] guarantees, checked on a CSR built
   elsewhere ([of_csr]) or re-checked on a finished graph ([validate]).
   Three passes, O(n + m) with no search and no sort: the offsets rise from
   0 to the slot count, so every slot index below lies in [0, arcs) and is
   read unchecked; every slice holds in-range ids other than its own
   vertex, strictly increasing (sorted, no duplicate); and every arc
   u -> v has its reverse.  The last pass is a cursor walk: with u
   ascending, the arcs into v arrive in increasing u, so v's sorted slice
   must list exactly those u, in that order — [cursor.(v)] is where the
   next one must stand.  Every check passing matches each arc with a
   distinct reverse arc, which is symmetry. *)
let check_csr who nv offsets slots =
  let bad what = invalid_arg (who ^ ": " ^ what) in
  if nv < 0 || nv > max_vertices then bad "vertex count out of range";
  if Array.length offsets <> nv + 1 then bad "offsets length is not n + 1";
  (* [Slots.create] makes every buffer 3 arcs + 1 bytes *)
  let arcs = Bytes.length slots / 3 in
  if offsets.(0) <> 0 || offsets.(nv) <> arcs then
    bad "offsets do not run from 0 to the slot count";
  for u = 0 to nv - 1 do
    if offsets.(u + 1) < offsets.(u) then bad "decreasing offsets"
  done;
  for u = 0 to nv - 1 do
    let prev = ref (-1) in
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let v = slot_u slots i in
      if v >= nv then bad (Printf.sprintf "neighbour %d of %d out of range" v u);
      if v = u then bad (Printf.sprintf "self-loop at %d" u);
      if v = !prev then bad (Printf.sprintf "duplicate edge (%d,%d)" u v);
      if v < !prev then bad (Printf.sprintf "unsorted slice of %d" u);
      prev := v
    done
  done;
  let cursor = Array.sub offsets 0 nv in
  for u = 0 to nv - 1 do
    for i = offsets.(u) to offsets.(u + 1) - 1 do
      let v = slot_u slots i in
      let c = cursor.(v) in
      if c >= offsets.(v + 1) || slot_u slots c <> u then
        bad (Printf.sprintf "arc %d -> %d has no reverse" u v);
      cursor.(v) <- c + 1
    done
  done

let of_csr ~n:nv ~offsets ~slots =
  check_csr "Graph.of_csr" nv offsets slots;
  let m = Bytes.length slots / 6 in
  { n = nv; m; offsets; adj = slots; min_deg = min_deg_of_offsets nv offsets }

let of_edge_array ~n edges =
  let b = Builder.create ~capacity:(Array.length edges) ~n () in
  Array.iter (fun (u, v) -> Builder.add_edge b u v) edges;
  Builder.finish b

let of_edges ~n edges = of_edge_array ~n (Array.of_list edges)

let validate g =
  check_csr "Graph.validate" g.n g.offsets g.adj;
  if Bytes.length g.adj <> (6 * g.m) + 1 then invalid_arg "Graph.validate: bad edge count"

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d, deg=[%d..%d]%s)" g.n g.m (min_degree g)
    (max_degree g)
    (if is_regular g then ", regular" else "")
