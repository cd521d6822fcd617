module Rng = Rumor_prob.Rng
module Dist = Rumor_prob.Dist
module Graph = Rumor_graph.Graph
module Placement = Rumor_agents.Placement

type mode = Dense | Sparse | Auto

let auto_threshold = 65536

let mode_to_string = function
  | Dense -> "dense"
  | Sparse -> "sparse"
  | Auto -> "auto"

let mode_of_string = function
  | "dense" -> Some Dense
  | "sparse" -> Some Sparse
  | "auto" -> Some Auto
  | _ -> None

let use_sparse mode spec g =
  match mode with
  | Dense -> false
  | Sparse -> true
  | Auto -> Placement.count spec g >= auto_threshold

(* Both per-vertex counts live packed in one word — uninformed in bits
   0..30, informed in bits 31..61 — so a walker deposit touches exactly one
   cache line instead of two parallel arrays.  k < 2^31 keeps either field
   from overflowing into the other. *)
let shift = 31
let mask = (1 lsl shift) - 1
let inf_one = 1 lsl shift

type t = {
  g : Graph.t;
  lazy_walk : bool;
  k : int;
  mutable cnt : int array;      (* packed (uninformed, informed) per vertex *)
  mutable cnt_next : int array; (* double-buffered scatter destinations *)
  mutable occ : int array;      (* occupied vertices, ascending, prefix occ_len;
                                   n + 1 slots: the branch-free appends below
                                   write one slot past the list *)
  mutable occ_len : int;
  mutable occ_next : int array; (* first-touch order during a scatter; n + 1 slots *)
  mutable occ_next_len : int;
}

let create ?(who = "Sparse_walkers.create") ~lazy_walk rng g spec =
  let counts =
    try Placement.place_counts rng spec g
    with Invalid_argument _ -> invalid_arg (who ^ ": no agents")
  in
  let n = Graph.n g in
  let k = ref 0 in
  let occ_len = ref 0 in
  let occ = Array.make (n + 1) 0 in
  let check_isolated = Graph.min_degree g = 0 in
  for v = 0 to n - 1 do
    if counts.(v) > 0 then begin
      if check_isolated && Graph.degree g v = 0 then
        invalid_arg (who ^ ": agent on isolated vertex");
      k := !k + counts.(v);
      occ.(!occ_len) <- v;
      incr occ_len
    end
  done;
  if !k = 0 then invalid_arg (who ^ ": no agents");
  if !k > mask then invalid_arg (who ^ ": more than 2^31 - 1 agents");
  {
    g;
    lazy_walk;
    k = !k;
    (* uninformed counts occupy the low bits, so the placement histogram is
       already the packed representation *)
    cnt = counts;
    cnt_next = Array.make n 0;
    occ;
    occ_len = !occ_len;
    occ_next = Array.make (n + 1) 0;
    occ_next_len = 0;
  }

let agent_count t = t.k
let occupied_count t = t.occ_len
let[@inline] occupied_vertex t i = t.occ.(i)
let[@inline] uninformed_at t v = t.cnt.(v) land mask
let[@inline] informed_at t v = t.cnt.(v) lsr shift

let[@inline] inform_all_at t v =
  let x = t.cnt.(v) in
  let cu = x land mask in
  if cu > 0 then t.cnt.(v) <- x - cu + (cu lsl shift);
  cu

(* In-place max-heap sort of the prefix [a.(0 .. len-1)] — no allocation, so
   the round loop stays scatter-only for the GC. *)
let sift_down a len root0 =
  let root = ref root0 in
  let live = ref true in
  while !live do
    let child = (2 * !root) + 1 in
    if child >= len then live := false
    else begin
      let child =
        if child + 1 < len && a.(child + 1) > a.(child) then child + 1
        else child
      in
      if a.(child) > a.(!root) then begin
        let tmp = a.(!root) in
        a.(!root) <- a.(child);
        a.(child) <- tmp;
        root := child
      end
      else live := false
    end
  done

let sort_prefix a len =
  for i = (len / 2) - 1 downto 0 do
    sift_down a len i
  done;
  for last = len - 1 downto 1 do
    let tmp = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- tmp;
    sift_down a last 0
  done

(* Credit [c] (pre-scaled by the class unit) to destination [v], tracking
   first touches so the occupied list never needs a full clear.  [v] is
   written at the list's end unconditionally and kept only on a first touch:
   no branch to mispredict. *)
let[@inline] deposit t v c =
  if c > 0 then begin
    let cnt_next = t.cnt_next in
    let x = cnt_next.(v) in
    let len = t.occ_next_len in
    t.occ_next.(len) <- v;
    t.occ_next_len <- len + Bool.to_int (x = 0);
    cnt_next.(v) <- x + c
  end

(* Split [count] walkers of one class (deposit unit [inc]: 1 for uninformed,
   [inf_one] for informed) leaving [u] across its deg(u) neighbor slots
   (plus the lazy self-slot).  Small populations draw one uniform slot per
   walker, O(count), through the unchecked [Rng.below] (there
   1 <= movers < d < 2^24); large ones run the uniform-weight
   specialization of {!Dist.multinomial} — chained conditional binomials
   over the CSR slice, O(deg).  Both are exact. *)
let scatter rng t u count inc =
  if count > 0 then begin
    let g = t.g in
    let d = Graph.degree g u in
    let movers =
      if t.lazy_walk then begin
        let stay = Dist.binomial rng count 0.5 in
        deposit t u (stay * inc);
        count - stay
      end
      else count
    in
    if movers > 0 then
      if movers < d then
        for _ = 1 to movers do
          deposit t (Graph.neighbor g u (Rng.below rng d)) inc
        done
      else begin
        let rem = ref movers in
        let j = ref 0 in
        while !rem > 0 do
          let slots = d - !j in
          let c =
            if slots = 1 then !rem
            else Dist.binomial rng !rem (1.0 /. float_of_int slots)
          in
          deposit t (Graph.neighbor g u !j) (c * inc);
          rem := !rem - c;
          incr j
        done
      end
  end

(* lint: hot *)
let step rng t =
  let n = Graph.n t.g in
  let cnt = t.cnt in
  t.occ_next_len <- 0;
  (* occupied vertices are kept ascending, so the sweep reads the CSR in
     order; zeroing the source slot as we go leaves the old buffer all-zero
     for reuse next round *)
  for idx = 0 to t.occ_len - 1 do
    let u = t.occ.(idx) in
    let x = cnt.(u) in
    cnt.(u) <- 0;
    scatter rng t u (x land mask) 1;
    scatter rng t u (x lsr shift) inf_one
  done;
  t.cnt <- t.cnt_next;
  t.cnt_next <- cnt;
  let old_occ = t.occ in
  t.occ <- t.occ_next;
  t.occ_next <- old_occ;
  t.occ_len <- t.occ_next_len;
  (* restore ascending order: when occupancy is dense an O(n) rebuild beats
     sorting; otherwise heapsort the prefix in place *)
  if t.occ_len * 8 >= n then begin
    let occ = t.occ and cnt = t.cnt in
    let len = ref 0 in
    for v = 0 to n - 1 do
      occ.(!len) <- v;
      len := !len + Bool.to_int (cnt.(v) <> 0)
    done;
    t.occ_len <- !len
  end
  else sort_prefix t.occ t.occ_len
