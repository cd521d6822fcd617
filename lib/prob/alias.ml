type t = {
  prob : float array;  (* prob.(i): probability of keeping i in column i *)
  alias : int array;   (* alias.(i): the other category stored in column i *)
}

let create w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Alias.create: empty weights";
  (* plain loops over the float arrays: a closure over their elements
     would box every weight *)
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    if w.(i) < 0.0 then invalid_arg "Alias.create: negative weight";
    total := !total +. w.(i)
  done;
  if not (!total > 0.0) then invalid_arg "Alias.create: zero total weight";
  (* Vose's stable construction: scale weights to mean 1, split into
     under-full and over-full columns, pair them off. *)
  let scaled = Array.make n 0.0 in
  for i = 0 to n - 1 do
    scaled.(i) <- w.(i) *. float_of_int n /. !total
  done;
  let prob = Array.make n 1.0 in
  let alias = Array.init n (fun i -> i) in
  (* the two work lists are LIFO stacks sharing one array: [small] grows
     up from slot 0, [large] down from slot n-1, and together they never
     hold more than the n column indices *)
  let stack = Array.make n 0 in
  let ns = ref 0 and nl = ref 0 in
  let push i =
    if scaled.(i) < 1.0 then begin
      stack.(!ns) <- i;
      incr ns
    end
    else begin
      incr nl;
      stack.(n - !nl) <- i
    end
  in
  for i = 0 to n - 1 do
    push i
  done;
  while !ns > 0 && !nl > 0 do
    decr ns;
    let s = stack.(!ns) and l = stack.(n - !nl) in
    decr nl;
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) -. (1.0 -. scaled.(s));
    push l
  done;
  (* leftovers are within rounding error of 1 *)
  for i = 0 to !ns - 1 do
    prob.(stack.(i)) <- 1.0
  done;
  for i = n - !nl to n - 1 do
    prob.(stack.(i)) <- 1.0
  done;
  { prob; alias }

let of_ints w =
  let f = Array.make (Array.length w) 0.0 in
  for i = 0 to Array.length w - 1 do
    f.(i) <- float_of_int w.(i)
  done;
  create f

let sample t g =
  let n = Array.length t.prob in
  let i = Rng.int g n in
  if Rng.float g 1.0 < t.prob.(i) then i else t.alias.(i)

let size t = Array.length t.prob

let probability t i =
  let n = Array.length t.prob in
  if i < 0 || i >= n then invalid_arg "Alias.probability: index out of range";
  (* column i contributes prob.(i)/n to i; every column j with alias j = i
     contributes (1 - prob.(j))/n *)
  let acc = ref (t.prob.(i) /. float_of_int n) in
  Array.iteri
    (fun j a -> if a = i && j <> i then acc := !acc +. ((1.0 -. t.prob.(j)) /. float_of_int n))
    t.alias;
  !acc
