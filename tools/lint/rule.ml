(* The rule interface: what a lint rule sees and what it produces. *)

type scope = Lib | Bin | Test | Other

let scope_of_string = function
  | "lib" -> Some Lib
  | "bin" -> Some Bin
  | "test" -> Some Test
  | "other" -> Some Other
  | _ -> None

let scope_to_string = function
  | Lib -> "lib"
  | Bin -> "bin"
  | Test -> "test"
  | Other -> "other"

type ctx = {
  path : string;  (** path as reported in findings *)
  scope : scope;
  mli_exists : bool;  (** a sibling [.mli] exists next to this [.ml] *)
}

type t = {
  id : string;  (** "R1" *)
  name : string;  (** "poly-compare" *)
  doc : string;  (** one-line description for [--list-rules] *)
  applies : ctx -> bool;  (** scope filter; checked before [check] runs *)
  check : ctx -> Parsetree.structure -> Finding.t list;
}

let everywhere (_ : ctx) = true
let lib_only ctx = ctx.scope = Lib
