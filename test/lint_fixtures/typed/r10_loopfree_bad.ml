(* R10 offender without a loop: a per-element hot function boxing a pair
   on every call, which its callers' loops then pay per iteration. *)

(* lint: hot *)
let pair_sum (a : int array) i =
  let pair = (a.(i), i) in
  fst pair + snd pair
