(* Hot functions R10 must leave alone: loop-free ones that allocate only
   in the arguments of a raise, and a looping one that allocates only
   outside its loop. *)

(* lint: hot *)
let checked_get (a : int array) i =
  if i < 0 || i >= Array.length a then
    raise (Invalid_argument (Printf.sprintf "checked_get: index %d" i));
  a.(i)

(* lint: hot *)
let first (a : int array) =
  if Array.length a = 0 then invalid_arg ("first: " ^ "empty array");
  a.(0)

(* lint: hot *)
let sum_and_length (a : int array) =
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc + a.(i)
  done;
  (!acc, Array.length a)
