(* R9 offender in a top-level body: [let () =] binds no name, yet it runs
   R9_helper.entropy, which reaches Random. *)

let () = ignore (R9_helper.entropy ())
