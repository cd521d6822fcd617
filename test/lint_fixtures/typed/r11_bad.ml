(* R11 offenders: [sum_unsafe] writes a captured ref from a pool closure
   (a data race across worker domains); [count_unsafe] reaches the same
   kind of write through a helper call. *)

let total = ref 0

let sum_unsafe pool (xs : int array) =
  Rumor_par.Pool.init_traced pool (Array.length xs) (fun ~trace:_ i ->
      total := !total + xs.(i);
      i)

let counter = ref 0

let bump () = counter := !counter + 1

let count_unsafe pool n =
  Rumor_par.Pool.init_traced pool n (fun ~trace:_ i ->
      bump ();
      i)
