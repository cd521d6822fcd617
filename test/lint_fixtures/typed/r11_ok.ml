(* The same captured-ref write as r11_bad.ml, suppressed at the write. *)

let total = ref 0

let sum_unsafe pool (xs : int array) =
  Rumor_par.Pool.init_traced pool (Array.length xs) (fun ~trace:_ i ->
      (* lint: allow R11 — single-domain pool in this fixture's contract *)
      total := !total + xs.(i);
      i)
