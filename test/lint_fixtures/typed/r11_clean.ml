(* Clean under R11: every write from the closure is either rooted in a
   closure-local binding or indexed by a value derived from the closure
   parameter. *)

let fill pool (out : int array) =
  Rumor_par.Pool.init_traced pool (Array.length out) (fun ~trace:_ i ->
      let scaled = i * 2 in
      out.(i) <- scaled;
      scaled)
