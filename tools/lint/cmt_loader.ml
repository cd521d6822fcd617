(* Loading .cmt files into Summary.t values.

   dune writes one .cmt per compiled module under _build (the @check
   alias is the cheapest way to produce them all). [load_all] walks a
   root for *.cmt files, reads each with Cmt_format, and extracts the
   plain-data summary the Effects fixpoint and the typed rules consume:
   top-level definitions, the calls they make, allocation sites inside
   their loops, writes to state they do not own, and applications of
   parallel-run entry points with their closure arguments pre-analyzed.

   Extraction is syntactic over the *typed* tree, so module aliases,
   dune's wrapped-library name mangling ([Rumor_prob.Rng] vs
   [Rumor_prob__Rng]) and value idents are resolved later, in Effects,
   using the alias tables each summary carries.

   Summaries are cached twice: in memory per process, and on disk under
   [_build/.rumor-lint-cache] keyed by the digest of the .cmt file (so a
   recompile invalidates naturally). The disk cache is best-effort: any
   read/write failure, version mismatch, or missing _build directory
   silently falls back to re-extraction. *)

open Typedtree

(* ------------------------------------------------------------------ *)
(* Path helpers                                                       *)
(* ------------------------------------------------------------------ *)

let rec path_parts (p : Path.t) =
  match p with
  | Path.Pident id -> Some [ Ident.name id ]
  | Path.Pdot (p, s) -> (
      match path_parts p with Some ps -> Some (ps @ [ s ]) | None -> None)
  | Path.Papply _ | Path.Pextra_ty _ -> None

let rec head_ident (p : Path.t) =
  match p with
  | Path.Pident id -> Some id
  | Path.Pdot (p, _) -> head_ident p
  | Path.Papply _ | Path.Pextra_ty _ -> None

(* The root of a write target: [t.buf.len <- e] roots at [t]. *)
let rec exp_root e =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some p
  | Texp_field (e, _, _) -> exp_root e
  | _ -> None

let strip_stdlib = function "Stdlib" :: rest -> rest | parts -> parts

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_lnum, p.pos_cnum - p.pos_bol)

(* A ref-cell update spelled as an application: [:=], [incr], [decr]. *)
let is_ref_update = function
  | [ ":=" ] | [ "incr" ] | [ "decr" ] -> true
  | _ -> false

(* An array/bytes store spelled as an application. [set]/[unsafe_set]
   carry an index argument the race heuristic can inspect; [fill]/[blit]
   are treated as opaque stores. *)
let store_family = function
  | ("Array" | "Bytes" | "Float" | "Bigarray") :: rest -> (
      match List.rev rest with
      | ("set" | "unsafe_set") :: _ -> Some `Indexed
      | ("fill" | "blit" | "unsafe_fill" | "unsafe_blit") :: _ -> Some `Opaque
      | _ -> None)
  | _ -> None

let first_some_arg args =
  List.find_map (fun ((_ : Asttypes.arg_label), a) -> a) args

let nth_some_arg args n =
  let somes = List.filter_map (fun ((_ : Asttypes.arg_label), a) -> a) args in
  List.nth_opt somes n

(* Names worth pre-filtering as the parallel-run entry point; R11 does
   the exact canonical match later (Rumor_par.Pool.init_traced). *)
let par_entry_suffix parts =
  match List.rev parts with "init_traced" :: _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Ident sets (tiny, list-backed: defs are small)                     *)
(* ------------------------------------------------------------------ *)

let mem_id id ids = List.exists (Ident.same id) ids

(* All head idents mentioned in an expression. *)
let idents_of_expr e =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.exp_desc with
          | Texp_ident (p, _, _) -> (
              match head_ident p with
              | Some id -> acc := id :: !acc
              | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !acc

let mentions_any ids e = List.exists (fun id -> mem_id id ids) (idents_of_expr e)

(* ------------------------------------------------------------------ *)
(* Closure analysis for the R11 race heuristic                        *)
(* ------------------------------------------------------------------ *)

(* Walk a literal closure passed to a parallel-run entry point and
   collect (a) writes whose target is neither closure-local nor indexed
   by a parameter-derived value, and (b) every call the closure makes (for
   the transitive shared-mutation check).

   Two ident sets evolve during the walk, in evaluation order:
   [local] — bound inside the closure (writes rooted there are private);
   [safe]  — derived from the closure's parameters, usable as a
   race-free array index. *)
let analyze_closure ~resolve_call closure =
  let local = ref [] and safe = ref [] in
  let writes = ref [] in
  let calls = ref [] and seen_calls = Hashtbl.create 8 in
  let add_call target line =
    let k = Summary.target_key target in
    if not (Hashtbl.mem seen_calls k) then begin
      Hashtbl.add seen_calls k ();
      calls := { Summary.target; cline = line } :: !calls
    end
  in
  let add_write desc loc =
    let line, col = pos_of loc in
    writes := { Summary.wdesc = desc; wline = line; wcol = col } :: !writes
  in
  let root_is_local e =
    match exp_root e with
    | None -> false (* complex target: be conservative, treat as shared *)
    | Some p -> (
        match head_ident p with
        | Some id -> mem_id id !local
        | None -> false)
  in
  let desc_of e fallback =
    match exp_root e with
    | Some p -> (
        match path_parts p with
        | Some parts -> String.concat "." parts
        | None -> fallback)
    | None -> fallback
  in
  (* peel leading parameters: nested single-case Texp_function chains *)
  let rec peel e =
    match e.exp_desc with
    | Texp_function { cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
        let ids = pat_bound_idents c_lhs in
        local := ids @ !local;
        safe := ids @ !safe;
        peel c_rhs
    | _ -> e
  in
  let body = peel closure in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> (
              match p with
              | Path.Pident id ->
                  if not (mem_id id !local) then
                    Option.iter (fun t -> add_call t (fst (pos_of e.exp_loc)))
                      (resolve_call p)
              | _ ->
                  Option.iter (fun t -> add_call t (fst (pos_of e.exp_loc)))
                    (resolve_call p))
          | Texp_let (_, vbs, body_e) ->
              List.iter (fun vb -> self.expr self vb.vb_expr) vbs;
              List.iter
                (fun vb ->
                  let ids = pat_bound_idents vb.vb_pat in
                  local := ids @ !local;
                  if mentions_any !safe vb.vb_expr then safe := ids @ !safe)
                vbs;
              self.expr self body_e
          | Texp_function { cases; _ } ->
              List.iter
                (fun c ->
                  local := pat_bound_idents c.c_lhs @ !local;
                  Option.iter (self.expr self) c.c_guard;
                  self.expr self c.c_rhs)
                cases
          | Texp_match (scrut, cases, _) ->
              self.expr self scrut;
              let scrut_safe = mentions_any !safe scrut in
              List.iter
                (fun c ->
                  let ids = pat_bound_idents c.c_lhs in
                  local := ids @ !local;
                  if scrut_safe then safe := ids @ !safe;
                  Option.iter (self.expr self) c.c_guard;
                  self.expr self c.c_rhs)
                cases
          | Texp_try (body_e, cases) ->
              self.expr self body_e;
              List.iter
                (fun c ->
                  local := pat_bound_idents c.c_lhs @ !local;
                  Option.iter (self.expr self) c.c_guard;
                  self.expr self c.c_rhs)
                cases
          | Texp_for (id, _, lo, hi, _, body_e) ->
              self.expr self lo;
              self.expr self hi;
              local := id :: !local;
              if mentions_any !safe lo || mentions_any !safe hi then
                safe := id :: !safe;
              self.expr self body_e
          | Texp_setfield (base, _, lbl, v) ->
              if not (root_is_local base) then
                add_write
                  (desc_of base "<expr>" ^ "." ^ lbl.lbl_name)
                  e.exp_loc;
              self.expr self base;
              self.expr self v
          | Texp_apply (f, args) ->
              (match f.exp_desc with
              | Texp_ident (p, _, _) -> (
                  match Option.map strip_stdlib (path_parts p) with
                  | Some parts when is_ref_update parts -> (
                      match first_some_arg args with
                      | Some base when not (root_is_local base) ->
                          add_write (desc_of base "<expr>" ^ " (ref)") e.exp_loc
                      | _ -> ())
                  | Some parts -> (
                      match store_family parts with
                      | Some kind -> (
                          match first_some_arg args with
                          | Some base when not (root_is_local base) ->
                              let safe_index =
                                match kind with
                                | `Opaque -> false
                                | `Indexed -> (
                                    match nth_some_arg args 1 with
                                    | Some idx -> mentions_any !safe idx
                                    | None -> false)
                              in
                              if not safe_index then
                                add_write
                                  (desc_of base "<expr>" ^ ".(_)")
                                  e.exp_loc
                          | _ -> ())
                      | None -> ())
                  | None -> ())
              | _ -> ());
              Tast_iterator.default_iterator.expr self e
          | _ -> Tast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it body;
  (List.rev !writes, List.rev !calls)

(* ------------------------------------------------------------------ *)
(* Structure walk: top-level defs and module aliases                  *)
(* ------------------------------------------------------------------ *)

let rec unwrap_mod me =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> unwrap_mod me
  | d -> d

(* Collect (ident, dotted name, binding) for every top-level [let] —
   including inside literal submodules and functor bodies, prefixed
   "Sub.f" — plus the [module X = P] aliases (dune's generated wrapper
   modules are exactly these, which is what lets Effects undo the __ name
   mangling) and the modules applied as [module X = F (P)].  A binding
   that names no single value ([let () = main ()], the body of every
   executable) gets no ident and a def named after its line, so its calls
   are still analysed. *)
let collect_structure str =
  let defs = ref [] and aliases = ref [] and functor_args = ref [] in
  let rec items prefix its = List.iter (item prefix) its
  and item prefix it =
    match it.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) ->
                defs := (Some id, prefix ^ Ident.name id, vb) :: !defs
            | _ ->
                let line = fst (pos_of vb.vb_loc) in
                defs := (None, Printf.sprintf "%slet@%d" prefix line, vb) :: !defs)
          vbs
    | Tstr_module mb -> mbinding prefix mb
    | Tstr_recmodule mbs -> List.iter (mbinding prefix) mbs
    | _ -> ()
  and mbinding prefix mb =
    match mb.mb_id with
    | None -> ()
    | Some id -> (
        let name = prefix ^ Ident.name id in
        match unwrap_mod mb.mb_expr with
        | Tmod_ident (p, _) -> (
            match path_parts p with
            | Some parts -> aliases := (name, parts) :: !aliases
            | None -> ())
        | Tmod_structure s -> items (name ^ ".") s.str_items
        | Tmod_functor (_, body) -> (
            match unwrap_mod body with
            | Tmod_structure s -> items (name ^ ".") s.str_items
            | _ -> ())
        | Tmod_apply (_, arg, _) -> (
            match unwrap_mod arg with
            | Tmod_ident (p, _) ->
                Option.iter (fun ps -> functor_args := ps :: !functor_args)
                  (path_parts p)
            | _ -> ())
        | _ -> ())
  in
  items "" str.str_items;
  (List.rev !defs, List.rev !aliases, List.rev !functor_args)

(* ------------------------------------------------------------------ *)
(* Per-definition analysis                                            *)
(* ------------------------------------------------------------------ *)

let analyze_def ~def_idents dname (vb : value_binding) : Summary.def =
  let dline, dcol = pos_of vb.vb_loc in
  let loop_depth = ref 0 in
  let has_loop = ref false in
  (* > 0 inside the arguments of a raising function: a raise path runs
     once, so what it allocates is no per-call or per-iteration cost *)
  let raising = ref 0 in
  let bound = ref [] in
  let calls = ref [] and seen_calls = Hashtbl.create 16 in
  let allocs = ref [] and seen_allocs = Hashtbl.create 8 in
  let par_calls = ref [] in
  let mutates = ref None in
  let resolve_call p : Summary.target option =
    match p with
    | Path.Pident id -> (
        match
          List.find_opt (fun (di, _) -> Ident.same id di) def_idents
        with
        | Some (_, full) -> Some (Summary.Local full)
        | None -> None (* a local binding, not a module-level def *))
    | _ -> (
        match path_parts p with
        | Some parts -> Some (Summary.Global parts)
        | None -> None)
  in
  let add_call target line =
    let k = Summary.target_key target in
    if not (Hashtbl.mem seen_calls k) then begin
      Hashtbl.add seen_calls k ();
      calls := { Summary.target; cline = line } :: !calls
    end
  in
  let add_alloc kind loc =
    if !raising = 0 then begin
      let aline, acol = pos_of loc in
      if not (Hashtbl.mem seen_allocs (aline, acol)) then begin
        Hashtbl.add seen_allocs (aline, acol) ();
        allocs := { Summary.kind; aline; acol; in_loop = !loop_depth > 0 } :: !allocs
      end
    end
  in
  let note_mut desc loc =
    if Option.is_none !mutates then begin
      let wline, wcol = pos_of loc in
      mutates := Some { Summary.wdesc = desc; wline; wcol }
    end
  in
  let root_free e =
    match exp_root e with
    | None -> false
    | Some p -> (
        match head_ident p with
        | Some id ->
            (* a persistent ident is a module root: always shared state *)
            not (mem_id id !bound) || Ident.persistent id
        | None -> false)
  in
  let desc_of e fallback =
    match exp_root e with
    | Some p -> (
        match path_parts p with
        | Some parts -> String.concat "." parts
        | None -> fallback)
    | None -> fallback
  in
  (* result-type-is-arrow detection for partial applications that the
     arg list does not reveal (e.g. [f x] where f takes two args) *)
  let returns_arrow e =
    match Types.get_desc e.exp_type with
    | Types.Tarrow _ -> true
    | _ -> false
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) ->
              Option.iter
                (fun t -> add_call t (fst (pos_of e.exp_loc)))
                (resolve_call p)
          | Texp_let (_, vbs, _) ->
              bound := let_bound_idents vbs @ !bound;
              Tast_iterator.default_iterator.expr self e
          | Texp_function { cases; _ } ->
              add_alloc Summary.Closure e.exp_loc;
              List.iter
                (fun c -> bound := pat_bound_idents c.c_lhs @ !bound)
                cases;
              let saved = !loop_depth in
              loop_depth := 0;
              Tast_iterator.default_iterator.expr self e;
              loop_depth := saved
          | Texp_match (_, cases, _) ->
              List.iter
                (fun c -> bound := pat_bound_idents c.c_lhs @ !bound)
                cases;
              Tast_iterator.default_iterator.expr self e
          | Texp_try (_, cases) ->
              List.iter
                (fun c -> bound := pat_bound_idents c.c_lhs @ !bound)
                cases;
              Tast_iterator.default_iterator.expr self e
          | Texp_for (id, _, lo, hi, _, body) ->
              bound := id :: !bound;
              self.expr self lo;
              self.expr self hi;
              has_loop := true;
              incr loop_depth;
              self.expr self body;
              decr loop_depth
          | Texp_while (cond, body) ->
              (* the condition re-evaluates every iteration too *)
              has_loop := true;
              incr loop_depth;
              self.expr self cond;
              self.expr self body;
              decr loop_depth
          | Texp_tuple _ ->
              add_alloc Summary.Tuple e.exp_loc;
              Tast_iterator.default_iterator.expr self e
          | Texp_record _ ->
              add_alloc Summary.Record e.exp_loc;
              Tast_iterator.default_iterator.expr self e
          | Texp_array _ ->
              add_alloc Summary.Array_lit e.exp_loc;
              Tast_iterator.default_iterator.expr self e
          | Texp_construct (_, cd, args) ->
              (match args with
              | [] -> ()
              | _ :: _ -> add_alloc (Summary.Variant cd.cstr_name) e.exp_loc);
              Tast_iterator.default_iterator.expr self e
          | Texp_setfield (base, _, lbl, _) ->
              if root_free base then
                note_mut (desc_of base "<expr>" ^ "." ^ lbl.lbl_name) e.exp_loc;
              Tast_iterator.default_iterator.expr self e
          | Texp_apply (f, args) ->
              let raises =
                match f.exp_desc with
                | Texp_ident (p, _, _) -> (
                    match Option.map strip_stdlib (path_parts p) with
                    | Some ([ "raise" ] | [ "raise_notrace" ] | [ "invalid_arg" ] | [ "failwith" ])
                      ->
                        true
                    | _ -> false)
                | _ -> false
              in
              (match f.exp_desc with
              | Texp_ident (p, _, _) -> (
                  let parts = Option.map strip_stdlib (path_parts p) in
                  (match parts with
                  | Some ps when is_ref_update ps -> (
                      match first_some_arg args with
                      | Some base when root_free base ->
                          note_mut (desc_of base "<expr>" ^ " (ref)") e.exp_loc
                      | _ -> ())
                  | Some ps -> (
                      match store_family ps with
                      | Some _ -> (
                          match first_some_arg args with
                          | Some base when root_free base ->
                              note_mut (desc_of base "<expr>" ^ ".(_)")
                                e.exp_loc
                          | _ -> ())
                      | None -> ())
                  | None -> ());
                  (* allocation classification of the application *)
                  (match parts with
                  | Some [ "ref" ] -> add_alloc Summary.Ref_cell e.exp_loc
                  | _ ->
                      if
                        List.exists
                          (fun ((_ : Asttypes.arg_label), a) ->
                            Option.is_none a)
                          args
                        || returns_arrow e
                      then add_alloc Summary.Partial_app e.exp_loc);
                  (* parallel-run entry point with literal closure args *)
                  match parts with
                  | Some ps when par_entry_suffix ps -> (
                      let closures =
                        List.filter_map
                          (fun ((_ : Asttypes.arg_label), a) ->
                            match a with
                            | Some ({ exp_desc = Texp_function _; _ } as c) ->
                                Some c
                            | _ -> None)
                          args
                      in
                      match (closures, resolve_call p) with
                      | _ :: _, Some fn ->
                          let pline, pcol = pos_of e.exp_loc in
                          let unsafe_writes, closure_calls =
                            List.fold_left
                              (fun (ws, cs) c ->
                                let w, cl =
                                  analyze_closure ~resolve_call c
                                in
                                (ws @ w, cs @ cl))
                              ([], []) closures
                          in
                          par_calls :=
                            {
                              Summary.fn;
                              pline;
                              pcol;
                              unsafe_writes;
                              closure_calls;
                            }
                            :: !par_calls
                      | _ -> ())
                  | _ -> ())
              | _ ->
                  if returns_arrow e then
                    add_alloc Summary.Partial_app e.exp_loc);
              if raises then incr raising;
              Tast_iterator.default_iterator.expr self e;
              if raises then decr raising
          | _ -> Tast_iterator.default_iterator.expr self e);
    }
  in
  (* top of the definition: peel parameters without counting the outer
     fun-chain as closure allocations *)
  let rec peel e =
    match e.exp_desc with
    | Texp_function { cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
        bound := pat_bound_idents c_lhs @ !bound;
        peel c_rhs
    | _ -> e
  in
  let body = peel vb.vb_expr in
  it.expr it body;
  {
    Summary.dname;
    dline;
    dcol;
    calls = List.rev !calls;
    allocs = List.rev !allocs;
    has_loop = !has_loop;
    par_calls = List.rev !par_calls;
    mutates = !mutates;
  }

(* ------------------------------------------------------------------ *)
(* Reading one cmt                                                    *)
(* ------------------------------------------------------------------ *)

let extract (cmt : Cmt_format.cmt_infos) (str : structure) : Summary.t =
  let raw_defs, aliases, functor_args = collect_structure str in
  let def_idents =
    List.filter_map (fun (id, full, _) -> Option.map (fun id -> (id, full)) id) raw_defs
  in
  let defs =
    List.map (fun (_, full, vb) -> analyze_def ~def_idents full vb) raw_defs
  in
  {
    Summary.modname = cmt.cmt_modname;
    source = (match cmt.cmt_sourcefile with Some s -> s | None -> "");
    digest =
      (match cmt.cmt_source_digest with
      | Some d -> Digest.to_hex d
      | None -> "");
    aliases;
    functor_args;
    defs;
  }

let read_cmt path : Summary.t option =
  match Cmt_format.read_cmt path with
  (* lint: allow R6 — an unreadable or foreign cmt is skipped, not fatal *)
  | exception _ -> None
  | cmt -> (
      match cmt.cmt_annots with
      | Cmt_format.Implementation str -> Some (extract cmt str)
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* Caching                                                            *)
(* ------------------------------------------------------------------ *)

let cache_version = "rumor-lint-summary/3 ocaml:" ^ Sys.ocaml_version

let cache_dir = Filename.concat "_build" ".rumor-lint-cache"

let cache_path key = Filename.concat cache_dir (key ^ ".summary")

let cache_read key : Summary.t option =
  match open_in_bin (cache_path key) with
  | exception Sys_error _ -> None
  | ic -> (
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match (Marshal.from_channel ic : string * Summary.t) with
          | v, s when String.equal v cache_version -> Some s
          | _ -> None
          (* lint: allow R6 — a corrupt cache entry falls back to re-extraction *)
          | exception _ -> None))

let cache_write key (s : Summary.t) =
  if Sys.file_exists "_build" then begin
    (try if not (Sys.file_exists cache_dir) then Sys.mkdir cache_dir 0o755
     (* lint: allow R6 — cache directory creation is best-effort *)
     with _ -> ());
    match open_out_bin (cache_path key) with
    | exception Sys_error _ -> ()
    | oc ->
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> Marshal.to_channel oc (cache_version, s) [])
  end

let memo : (string, Summary.t option) Hashtbl.t = Hashtbl.create 64

let load path : Summary.t option =
  match Hashtbl.find_opt memo path with
  | Some r -> r
  | None ->
      let r =
        match Digest.file path with
        | exception Sys_error _ -> read_cmt path
        | digest -> (
            let key = Digest.to_hex digest in
            match cache_read key with
            | Some s -> Some s
            | None ->
                let r = read_cmt path in
                (match r with Some s -> cache_write key s | None -> ());
                r)
      in
      Hashtbl.add memo path r;
      r

(* ------------------------------------------------------------------ *)
(* Discovery                                                          *)
(* ------------------------------------------------------------------ *)

(* Every cmt is loaded, examples and perfbench included: they are not
   linted, but their calls are the callers R12 looks for. *)
let rec walk_cmts path acc =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.fold_left
         (fun acc name -> walk_cmts (Filename.concat path name) acc)
         acc
  else if Filename.check_suffix path ".cmt" then path :: acc
  else acc

let load_all root : Summary.t list =
  match walk_cmts root [] with
  | exception Sys_error _ -> []
  | cmts -> List.sort String.compare cmts |> List.filter_map load
