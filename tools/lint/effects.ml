(* The interprocedural effect fixpoint over Cmt_loader summaries.

   Each definition gets a set of reached facts (Summary.fact), each with
   one witness origin: Direct (this body touches the primitive) or Via
   (a callee reaches it). Propagation follows the call graph to a fixed
   point, cutting at the two sanctioned absorber layers: lib/par absorbs
   concurrency and shared-mutation facts (that is R7's boundary), and
   lib/obs absorbs wall-clock facts (R8's boundary).

   Name resolution works on the dotted paths recorded in summaries:
   first local [module X = P] aliases of the calling module, then the
   global alias table harvested from every summary — dune's generated
   wrapper modules ([module Rng = Rumor_prob__Rng] inside Rumor_prob)
   are ordinary aliases there, which is what undoes the __ mangling.
   A final fallback matches a lone head component against the known
   compilation units ("Engine.push" -> "Rumor_protocols__Engine.push")
   when the match is unambiguous. *)

type origin =
  | Direct of { prim : string; oline : int }
  | Via of { callee : string; vline : int }

type info = {
  key : string;  (** "Rumor_protocols__Engine.push" *)
  modname : string;
  source : string;  (** source path recorded in the cmt, "" if unknown *)
  def : Summary.def;
  mutable reach : (Summary.fact * origin) list;
}

type t = {
  infos : (string, info) Hashtbl.t;
  order : string list;  (** sorted keys: deterministic iteration *)
  global_aliases : (string, string list) Hashtbl.t;
  local_aliases : (string, (string, string list) Hashtbl.t) Hashtbl.t;
  by_digest : (string, Summary.t) Hashtbl.t;
  modnames : string list;
  referenced : (string, unit) Hashtbl.t;
      (** definitions named from another module outside the tests (R12) *)
}

(* "Rumor_par__Pool.create" -> "Rumor_par.Pool.create": undo dune's wrapped
   library mangling for display and for canonical comparisons. *)
let display key =
  let b = Buffer.create (String.length key) in
  let n = String.length key in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && key.[!i] = '_' && key.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b key.[!i];
      incr i
    end
  done;
  Buffer.contents b

let under_par_source source =
  Rules.under_par { Rule.path = source; scope = Rule.Lib; mli_exists = false }

let under_obs_source source =
  Rules.under_obs { Rule.path = source; scope = Rule.Lib; mli_exists = false }

(* Test code: the innermost lib/, bin/, test/ or lint_fixtures/ directory
   on the source path is test/ or lint_fixtures/. test/test_rng.ml is,
   and so is every fixture, except those under a fixture's own lib/. *)
let test_source source =
  match
    List.find_opt
      (fun d -> List.mem d [ "lib"; "bin"; "test"; "lint_fixtures" ])
      (List.rev (String.split_on_char '/' (Filename.dirname source)))
  with
  | Some ("test" | "lint_fixtures") -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Builtin effect classification                                      *)
(* ------------------------------------------------------------------ *)

let is_stdout_ident parts =
  List.exists (fun known -> known = parts) Rules.stdout_idents
  || (match parts with [ "Fmt"; ("pr" | "epr") ] -> true | _ -> false)

let classify_builtin parts : (Summary.fact * string) option =
  let parts = match parts with "Stdlib" :: rest -> rest | _ -> parts in
  let prim = String.concat "." parts in
  match parts with
  | "Random" :: _ :: _ -> Some (Summary.Rng, prim)
  | ("Domain" | "Atomic" | "Mutex" | "Condition" | "Semaphore") :: _ ->
      Some (Summary.Conc, prim)
  | [ "Unix"; ("gettimeofday" | "time" | "times") ] | [ "Sys"; "time" ] ->
      Some (Summary.Clock, prim)
  | ("Mtime" | "Mtime_clock") :: _ -> Some (Summary.Clock, prim)
  | _ -> if is_stdout_ident parts then Some (Summary.Io, prim) else None

(* ------------------------------------------------------------------ *)
(* Name resolution                                                    *)
(* ------------------------------------------------------------------ *)

let take n xs =
  let rec go n xs acc =
    match (n, xs) with
    | 0, _ | _, [] -> List.rev acc
    | n, x :: rest -> go (n - 1) rest (x :: acc)
  in
  go n xs []

let drop n xs =
  let rec go n xs = match (n, xs) with 0, _ -> xs | _, [] -> [] | n, _ :: r -> go (n - 1) r in
  go n xs

(* Rewrite the leading components of [parts] through the alias tables
   until nothing changes (with fuel, in case of alias cycles). *)
let rewrite t ~modname parts =
  let local = Hashtbl.find_opt t.local_aliases modname in
  let step parts =
    (* longest matching prefix wins, local aliases first *)
    let try_local =
      match (local, parts) with
      | Some tbl, head :: rest -> (
          match Hashtbl.find_opt tbl head with
          | Some target -> Some (target @ rest)
          | None -> None)
      | _ -> None
    in
    match try_local with
    | Some p -> Some p
    | None ->
        let n = List.length parts in
        let rec prefix k =
          if k < 1 then None
          else
            let key = String.concat "." (take k parts) in
            match Hashtbl.find_opt t.global_aliases key with
            | Some target -> Some (target @ drop k parts)
            | None -> prefix (k - 1)
        in
        prefix (min n 4)
  in
  let rec go fuel parts =
    if fuel = 0 then parts
    else match step parts with Some p when p <> parts -> go (fuel - 1) p | _ -> parts
  in
  go 8 parts

let resolve t ~modname (target : Summary.target) : string =
  match target with
  | Summary.Local name -> modname ^ "." ^ name
  | Summary.Global parts -> String.concat "." (rewrite t ~modname parts)

(* Find the definition a resolved dotted name denotes, if it is in the
   loaded summaries. *)
let find_info t ~modname resolved : info option =
  match Hashtbl.find_opt t.infos resolved with
  | Some i -> Some i
  | None -> (
      (* same-unit nested module reference: "Builder.add_edge" *)
      match Hashtbl.find_opt t.infos (modname ^ "." ^ resolved) with
      | Some i -> Some i
      | None -> (
          (* unambiguous unwrapped unit: "Engine.push" when exactly one
             known unit is Engine or *__Engine *)
          match String.index_opt resolved '.' with
          | None -> None
          | Some dot -> (
              let head = String.sub resolved 0 dot in
              let rest =
                String.sub resolved (dot + 1) (String.length resolved - dot - 1)
              in
              let suffix = "__" ^ head in
              let matches =
                List.filter
                  (fun mn ->
                    String.equal mn head
                    || (String.length mn > String.length suffix
                       && String.equal suffix
                            (String.sub mn
                               (String.length mn - String.length suffix)
                               (String.length suffix))))
                  t.modnames
              in
              match matches with
              | [ mn ] -> Hashtbl.find_opt t.infos (mn ^ "." ^ rest)
              | _ -> None)))

(* ------------------------------------------------------------------ *)
(* Reach manipulation                                                 *)
(* ------------------------------------------------------------------ *)

let reach_of info fact =
  List.find_map
    (fun (f, o) -> if Summary.fact_equal f fact then Some o else None)
    info.reach

let add_reach info fact origin =
  match reach_of info fact with
  | Some _ -> false
  | None ->
      info.reach <- (fact, origin) :: info.reach;
      true

let reach t key fact =
  match Hashtbl.find_opt t.infos key with
  | None -> None
  | Some info -> reach_of info fact

let origin_is_direct t key fact =
  match reach t key fact with Some (Direct _) -> true | _ -> false

(* The witness chain for a reached fact: the flagged definition first,
   then each callee hop, ending at the offending primitive. *)
let chain t key fact : string list =
  let rec go key acc visited =
    if List.mem key visited then List.rev acc
    else
      match reach t key fact with
      | None -> List.rev acc
      | Some (Direct { prim; _ }) -> List.rev (display prim :: display key :: acc)
      | Some (Via { callee; _ }) -> go callee (display key :: acc) (key :: visited)
  in
  go key [] []

(* ------------------------------------------------------------------ *)
(* Build: tables, seeding, fixpoint                                   *)
(* ------------------------------------------------------------------ *)

(* The base rule whose suppression also silences this fact's seed: an
   intentional, commented primitive use (e.g. Table.print's R3 allow)
   should not re-surface at every caller through R9. *)
let seed_rule = function
  | Summary.Rng -> ("R2", "no-global-random")
  | Summary.Io -> ("R3", "no-stdout-in-lib")
  | Summary.Conc -> ("R7", "concurrency-confinement")
  | Summary.Clock -> ("R8", "clock-confinement")
  | Summary.Mut -> ("R11", "domain-race")
  | Summary.Alloc -> ("R10", "hot-path-alloc")

let seed_allowed sup fact line =
  match sup with
  | None -> false
  | Some table ->
      let id, name = seed_rule fact in
      Suppress.allows table ~line ~id ~name
      || Suppress.allows table ~line ~id:"R9" ~name:"effect-confinement"

let build (summaries : Summary.t list) ~suppress_for : t =
  let infos = Hashtbl.create 256 in
  let global_aliases = Hashtbl.create 64 in
  let local_aliases = Hashtbl.create 64 in
  let by_digest = Hashtbl.create 64 in
  List.iter
    (fun (s : Summary.t) ->
      if s.digest <> "" then Hashtbl.replace by_digest s.digest s;
      let local = Hashtbl.create 8 in
      List.iter
        (fun (name, parts) ->
          Hashtbl.replace local name parts;
          Hashtbl.replace global_aliases (s.modname ^ "." ^ name) parts)
        s.aliases;
      Hashtbl.replace local_aliases s.modname local;
      List.iter
        (fun (d : Summary.def) ->
          let key = s.modname ^ "." ^ d.dname in
          Hashtbl.replace infos key
            { key; modname = s.modname; source = s.source; def = d; reach = [] })
        s.defs)
    summaries;
  let order =
    Hashtbl.fold (fun k _ acc -> k :: acc) infos [] |> List.sort String.compare
  in
  let modnames = List.map (fun (s : Summary.t) -> s.modname) summaries in
  let referenced = Hashtbl.create 256 in
  let t =
    { infos; order; global_aliases; local_aliases; by_digest; modnames; referenced }
  in
  (* every cross-module reference made outside the tests; an unresolved
     one (an [external], say) is kept under its resolved name, and a
     functor argument under its unit's name *)
  List.iter
    (fun (s : Summary.t) ->
      if not (test_source s.source) then
        List.iter
          (fun parts ->
            Hashtbl.replace referenced
              (String.concat "." (rewrite t ~modname:s.modname parts))
              ())
          s.functor_args)
    summaries;
  List.iter
    (fun key ->
      let info = Hashtbl.find infos key in
      if not (test_source info.source) then
        List.iter
          (fun (c : Summary.call) ->
            match c.target with
            | Summary.Local _ -> ()
            | Summary.Global _ ->
                let resolved = resolve t ~modname:info.modname c.target in
                let callee, unit =
                  match find_info t ~modname:info.modname resolved with
                  | Some i -> (i.key, i.modname)
                  | None -> (resolved, List.hd (String.split_on_char '.' resolved))
                in
                if not (String.equal unit info.modname) then
                  Hashtbl.replace referenced callee ())
          info.def.calls)
    order;
  (* seed direct facts *)
  List.iter
    (fun key ->
      let info = Hashtbl.find infos key in
      let sup = suppress_for info.source in
      List.iter
        (fun (c : Summary.call) ->
          match c.target with
          | Summary.Local _ -> ()
          | Summary.Global parts -> (
              let parts = rewrite t ~modname:info.modname parts in
              match classify_builtin parts with
              | Some (fact, prim) ->
                  if not (seed_allowed sup fact c.cline) then
                    ignore
                      (add_reach info fact (Direct { prim; oline = c.cline }))
              | None -> ()))
        info.def.calls;
      (match info.def.mutates with
      | Some w ->
          if not (seed_allowed sup Summary.Mut w.wline) then
            ignore
              (add_reach info Summary.Mut
                 (Direct { prim = w.wdesc; oline = w.wline }))
      | None -> ());
      match List.filter (fun (a : Summary.alloc) -> a.in_loop) info.def.allocs with
      | a :: _ ->
          if not (seed_allowed sup Summary.Alloc a.aline) then
            ignore
              (add_reach info Summary.Alloc
                 (Direct { prim = "allocation"; oline = a.aline }))
      | [] -> ())
    order;
  (* propagate to a fixed point, cutting at the absorber layers *)
  let absorbed callee fact =
    (under_par_source callee.source
    && (Summary.fact_equal fact Summary.Conc
       || Summary.fact_equal fact Summary.Mut))
    || (under_obs_source callee.source && Summary.fact_equal fact Summary.Clock)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun key ->
        let info = Hashtbl.find infos key in
        List.iter
          (fun (c : Summary.call) ->
            let resolved = resolve t ~modname:info.modname c.target in
            match find_info t ~modname:info.modname resolved with
            | None -> ()
            | Some callee ->
                if not (String.equal callee.key info.key) then
                  List.iter
                    (fun (fact, _) ->
                      if not (absorbed callee fact) then
                        if
                          add_reach info fact
                            (Via { callee = callee.key; vline = c.cline })
                        then changed := true)
                    callee.reach)
          info.def.calls)
      order
  done;
  t

let summary_for_digest t digest = Hashtbl.find_opt t.by_digest digest

let referenced t key = Hashtbl.mem t.referenced key
