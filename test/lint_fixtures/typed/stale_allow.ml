(* A suppression that suppresses nothing: the R10 allow below sits in a hot
   loop that allocates nothing, so a run of R10 reports the allow itself.
   A run that leaves R10 out does not judge it, and a string holding the
   marker is no suppression at all. *)

(* lint: hot *)
let sum (a : int array) =
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    (* lint: allow R10 — stale: nothing here allocates *)
    acc := !acc + a.(i)
  done;
  !acc

let not_a_suppression = "(* lint: allow R10 — inside a string *)"
