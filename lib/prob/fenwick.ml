type t = {
  tree : int array; (* 1-indexed partial sums; slot i covers i - lsb(i) + 1 .. i *)
  n : int;
  top : int; (* largest power of two <= max n 1: find's first step *)
  mutable total : int;
}

let create n =
  if n < 0 then invalid_arg "Fenwick.create: n < 0";
  let top = ref 1 in
  while !top * 2 <= n do
    top := !top * 2
  done;
  { tree = Array.make (n + 1) 0; n; top = !top; total = 0 }

let total t = t.total

let of_counts counts =
  let t = create (Array.length counts) in
  (* O(n) bulk build: seed each leaf, then push partial sums to parents *)
  Array.iteri (fun i c -> t.tree.(i + 1) <- c) counts;
  for j = 1 to t.n do
    let parent = j + (j land (-j)) in
    if parent <= t.n then t.tree.(parent) <- t.tree.(parent) + t.tree.(j)
  done;
  Array.iter (fun c -> t.total <- t.total + c) counts;
  t

(* Binary-lifting descent: find the leaf holding rank r without a search
   over prefix sums — O(log n) array reads, no allocation. *)
(* lint: hot *)
let find_into t r ~residual =
  if r < 0 || r >= t.total then invalid_arg "Fenwick.find: rank out of range";
  let idx = ref 0 in
  let rem = ref r in
  let step = ref t.top in
  while !step > 0 do
    let next = !idx + !step in
    if next <= t.n && t.tree.(next) <= !rem then begin
      rem := !rem - t.tree.(next);
      idx := next
    end;
    step := !step / 2
  done;
  residual := !rem;
  !idx

let find t r =
  let residual = ref 0 in
  let i = find_into t r ~residual in
  (i, !residual)
