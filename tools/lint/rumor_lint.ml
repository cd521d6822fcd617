(* rumor_lint: determinism and comparison discipline for the rumor tree.

   Usage:
     rumor_lint [options] <file-or-dir>...

   Parses every .ml/.mli it is given (directories are walked recursively)
   with compiler-libs and runs the rule registry over each implementation.
   With --typed (or --only naming a typed rule) it additionally loads the
   .cmt files under --cmt-root, builds the interprocedural effect fixpoint
   (see Effects) and runs the typedtree rules R9-R11 over every input file
   whose digest matches a compiled module. Exit codes mirror rumor_report's
   contract:

     0  clean
     1  at least one finding
     2  parse or I/O error (reported on stderr)

   Suppression: a line containing  (* lint: allow R1 — reason *)  silences
   the listed rules on that line and the next one. *)

let usage = "rumor_lint [options] <file-or-dir>...\noptions:"

(* ------------------------------------------------------------------ *)
(* CLI state                                                          *)
(* ------------------------------------------------------------------ *)

type format = Text | Json

let root = ref "."
let forced_scope = ref None
let only = ref None
let except = ref []
let excludes = ref []
let list_rules = ref false
let typed = ref false
let cmt_root = ref None
let format = ref Text
let paths = ref []

let set_scope s =
  match Rule.scope_of_string s with
  | Some sc -> forced_scope := Some sc
  | None -> raise (Arg.Bad (Printf.sprintf "unknown scope %S" s))

let set_format s =
  match s with
  | "text" -> format := Text
  | "json" -> format := Json
  | _ -> raise (Arg.Bad (Printf.sprintf "unknown format %S (text|json)" s))

let rule_tokens s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun t -> t <> "")
  |> List.map String.lowercase_ascii

(* Both registries, as (id, name) keys, for --only/--except validation. *)
let registry_keys =
  List.map (fun (r : Rule.t) -> (r.id, r.name)) Rules.all
  @ List.map (fun (r : Typed_rules.t) -> (r.id, r.name)) Typed_rules.all

let key_matches (id, name) tokens =
  List.mem (String.lowercase_ascii id) tokens
  || List.mem (String.lowercase_ascii name) tokens

let matches_token (r : Rule.t) tokens = key_matches (r.id, r.name) tokens

let typed_matches_token (r : Typed_rules.t) tokens =
  key_matches (r.id, r.name) tokens

let set_only s =
  let wanted = rule_tokens s in
  if not (List.exists (fun k -> key_matches k wanted) registry_keys) then
    raise (Arg.Bad (Printf.sprintf "--only %s selects no rules" s));
  only := Some wanted

let set_except s =
  let wanted = rule_tokens s in
  List.iter
    (fun w ->
      if not (List.exists (fun k -> key_matches k [ w ]) registry_keys) then
        raise (Arg.Bad (Printf.sprintf "--except %s names no rule" w)))
    wanted;
  except := wanted @ !except

let spec =
  [
    ( "--root",
      Arg.Set_string root,
      "DIR resolve lib/bin/test scopes relative to DIR (default .)" );
    ( "--scope",
      Arg.String set_scope,
      "S force scope for all inputs: lib|bin|test|other (default: from \
       path)" );
    ( "--only",
      Arg.String set_only,
      "IDS run only these rules (comma-separated ids or names)" );
    ( "--except",
      Arg.String set_except,
      "IDS skip these rules (comma-separated ids or names; repeatable)" );
    ( "--exclude",
      Arg.String (fun s -> excludes := s :: !excludes),
      "SUB skip paths containing SUB (repeatable; scratch/, examples/ and \
       lint_fixtures/ are always skipped unless named explicitly)" );
    ( "--typed",
      Arg.Set typed,
      " run the typedtree rules (R9-R11) against the cmts under --cmt-root" );
    ( "--cmt-root",
      Arg.String (fun s -> cmt_root := Some s),
      "DIR where to discover .cmt files (default: _build/default if present, \
       else .)" );
    ( "--format",
      Arg.String set_format,
      "F output format: text (default) or json (a rumor-lint/1 document)" );
    ("--list-rules", Arg.Set list_rules, " print the rule table and exit");
  ]

(* ------------------------------------------------------------------ *)
(* File collection                                                    *)
(* ------------------------------------------------------------------ *)

let is_source f =
  Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let excluded path =
  let has_sub sub =
    let n = String.length path and m = String.length sub in
    let rec at i = i + m <= n && (String.sub path i m = sub || at (i + 1)) in
    m > 0 && at 0
  in
  List.exists has_sub !excludes

(* Directory entries never linted unless passed as an explicit root:
   scratch/ and examples/ are demo code outside the discipline, and
   lint_fixtures/ is a corpus of deliberate offenders. *)
let default_skip = [ "scratch"; "examples"; "lint_fixtures" ]

let rec walk path acc =
  if excluded path then acc
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun name ->
           (not (String.length name > 0 && (name.[0] = '_' || name.[0] = '.')))
           && not (List.mem name default_skip))
    |> List.fold_left (fun acc name -> walk (Filename.concat path name) acc) acc
  else if is_source path then path :: acc
  else acc

let collect_files args =
  List.fold_left (fun acc p -> walk p acc) [] args
  |> List.sort_uniq String.compare

(* ------------------------------------------------------------------ *)
(* Scope resolution                                                   *)
(* ------------------------------------------------------------------ *)

(* Path of [path] relative to [root], textually: enough for scope sniffing. *)
let relativize ~root path =
  let norm p =
    if String.length p >= 2 && String.sub p 0 2 = "./" then
      String.sub p 2 (String.length p - 2)
    else p
  in
  let root = norm root and path = norm path in
  if root = "." || root = "" then path
  else
    let root = if Filename.check_suffix root "/" then root else root ^ "/" in
    let rl = String.length root in
    if String.length path > rl && String.sub path 0 rl = root then
      String.sub path rl (String.length path - rl)
    else path

let scope_of_path path =
  match !forced_scope with
  | Some s -> s
  | None -> (
      let rel = relativize ~root:!root path in
      match String.split_on_char '/' rel with
      | first :: _ :: _ -> (
          (* only a directory component counts, hence the two-element match *)
          match Rule.scope_of_string first with
          | Some s -> s
          | None -> Rule.Other)
      | _ -> Rule.Other)

let ctx_of_path path =
  {
    Rule.path;
    scope = scope_of_path path;
    mli_exists =
      Filename.check_suffix path ".ml"
      && Sys.file_exists (Filename.remove_extension path ^ ".mli");
  }

(* ------------------------------------------------------------------ *)
(* Linting one file (parsetree rules)                                 *)
(* ------------------------------------------------------------------ *)

type outcome = Findings of Finding.t list | Failed of string

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_error_message exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) -> Format.asprintf "%a" Location.print_report report
  | Some `Already_displayed | None -> Printexc.to_string exn

let lint_file rules path =
  match read_file path with
  | exception Sys_error msg -> Failed msg
  | source -> (
      let lexbuf = Lexing.from_string source in
      Location.init lexbuf path;
      let parsed =
        if Filename.check_suffix path ".mli" then (
          (* interfaces are parsed so syntax errors surface as exit 2, but
             the rules only inspect implementations *)
          match Parse.interface lexbuf with
          | (_ : Parsetree.signature) -> Ok []
          (* lint: allow R6 — any parse failure becomes an exit-2 diagnostic *)
          | exception exn -> Error (parse_error_message exn))
        else
          match Parse.implementation lexbuf with
          | str -> Ok [ str ]
          (* lint: allow R6 — any parse failure becomes an exit-2 diagnostic *)
          | exception exn -> Error (parse_error_message exn)
      in
      match parsed with
      | Error msg -> Failed msg
      | Ok structures ->
          let ctx = ctx_of_path path in
          let suppressions = Suppress.scan source in
          let findings =
            List.concat_map
              (fun str ->
                List.concat_map
                  (fun (r : Rule.t) ->
                    if r.applies ctx then r.check ctx str else [])
                  rules)
              structures
            |> List.filter (fun (f : Finding.t) ->
                   not
                     (Suppress.allows suppressions ~line:f.line ~id:f.rule
                        ~name:f.name))
          in
          Findings findings)

(* ------------------------------------------------------------------ *)
(* The typed pass (R9-R11 over cmts)                                  *)
(* ------------------------------------------------------------------ *)

(* Inputs are matched to compiled modules by source digest, so the pass
   is immune to path spelling differences between the walk and the cmts
   (workspace root vs _build/default). A file with no matching cmt is
   skipped: only compiled code can be analyzed. *)
let typed_pass trules files =
  let croot =
    match !cmt_root with
    | Some d -> d
    | None ->
        let d = Filename.concat "_build" "default" in
        if Sys.file_exists d && Sys.is_directory d then d else "."
  in
  let summaries = Cmt_loader.load_all croot in
  let sup_cache = Hashtbl.create 32 in
  let suppress_for source =
    match Hashtbl.find_opt sup_cache source with
    | Some s -> s
    | None ->
        let s =
          if source <> "" && Sys.file_exists source then
            match read_file source with
            | src -> Some (Suppress.scan src)
            | exception Sys_error _ -> None
          else None
        in
        Hashtbl.add sup_cache source s;
        s
  in
  let env = Effects.build summaries ~suppress_for in
  let matched = ref 0 in
  let findings =
    List.concat_map
      (fun path ->
        if not (Filename.check_suffix path ".ml") then []
        else
          match Digest.file path with
          | exception Sys_error _ -> []
          | digest -> (
              match
                Effects.summary_for_digest env (Digest.to_hex digest)
              with
              | None -> []
              | Some summary -> (
                  incr matched;
                  match read_file path with
                  | exception Sys_error _ -> []
                  | source ->
                      let ctx = ctx_of_path path in
                      let suppressions = Suppress.scan source in
                      let tc =
                        {
                          Typed_rules.rctx = ctx;
                          summary;
                          env;
                          hot_lines = Suppress.hot_lines source;
                        }
                      in
                      List.concat_map
                        (fun (r : Typed_rules.t) ->
                          if r.applies ctx then r.check tc else [])
                        trules
                      |> List.filter (fun (f : Finding.t) ->
                             not
                               (Suppress.allows suppressions ~line:f.line
                                  ~id:f.rule ~name:f.name)))))
      files
  in
  if !matched = 0 && List.exists (fun p -> Filename.check_suffix p ".ml") files
  then
    Printf.eprintf
      "rumor_lint: note: typed rules matched no inputs under cmt root %s \
       (run `dune build @check` first?)\n"
      croot;
  findings

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let print_text findings errors =
  List.iter (fun f -> print_endline (Finding.to_string f)) findings;
  List.iter
    (fun (path, msg) -> Printf.eprintf "rumor_lint: %s: %s\n" path msg)
    errors

let print_json findings errors =
  let doc =
    Rumor_obs.Json.Obj
      [
        ("schema", Rumor_obs.Json.String "rumor-lint/1");
        ("findings", Rumor_obs.Json.List (List.map Finding.to_json findings));
        ( "errors",
          Rumor_obs.Json.List
            (List.map
               (fun (path, msg) ->
                 Rumor_obs.Json.Obj
                   [
                     ("file", Rumor_obs.Json.String path);
                     ("message", Rumor_obs.Json.String msg);
                   ])
               errors) );
      ]
  in
  print_endline (Rumor_obs.Json.to_string_json doc);
  List.iter
    (fun (path, msg) -> Printf.eprintf "rumor_lint: %s: %s\n" path msg)
    errors

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let print_rule_table () =
  let bin_ctx = { Rule.path = ""; scope = Rule.Bin; mli_exists = true } in
  List.iter
    (fun (r : Rule.t) ->
      let scopes = if r.applies bin_ctx then "everywhere" else "lib/ only" in
      Printf.printf "%s  %-20s %-10s %s\n" r.id r.name scopes r.doc)
    Rules.all;
  List.iter
    (fun (r : Typed_rules.t) ->
      let scopes = if r.applies bin_ctx then "everywhere" else "lib/ only" in
      Printf.printf "%s %-20s %-10s (typed) %s\n" r.id r.name scopes r.doc)
    Typed_rules.all

let () =
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  if !list_rules then (
    print_rule_table ();
    exit 0);
  (match !paths with
  | [] ->
      prerr_endline
        "rumor_lint: no inputs (try: rumor_lint lib bin test)";
      exit 2
  | _ :: _ -> ());
  let parse_rules =
    (match !only with
    | Some toks -> List.filter (fun r -> matches_token r toks) Rules.all
    | None -> Rules.all)
    |> List.filter (fun r -> not (matches_token r !except))
  in
  let typed_enabled =
    !typed
    || match !only with
       | Some toks ->
           List.exists (fun r -> typed_matches_token r toks) Typed_rules.all
       | None -> false
  in
  let typed_rules =
    if not typed_enabled then []
    else
      (match !only with
      | Some toks ->
          List.filter (fun r -> typed_matches_token r toks) Typed_rules.all
      | None -> Typed_rules.all)
      |> List.filter (fun r -> not (typed_matches_token r !except))
  in
  let files =
    match collect_files (List.rev !paths) with
    | files -> files
    | exception Sys_error msg ->
        Printf.eprintf "rumor_lint: %s\n" msg;
        exit 2
  in
  let findings, errors =
    List.fold_left
      (fun (fs, errs) path ->
        match lint_file parse_rules path with
        | Findings f -> (f @ fs, errs)
        | Failed msg -> (fs, (path, msg) :: errs))
      ([], []) files
  in
  let findings =
    match typed_rules with
    | [] -> findings
    | _ :: _ -> typed_pass typed_rules files @ findings
  in
  let findings = List.sort Finding.order findings in
  let errors = List.rev errors in
  (match !format with
  | Text -> print_text findings errors
  | Json -> print_json findings errors);
  let n = List.length findings in
  if n > 0 then
    Printf.eprintf "rumor_lint: %d finding%s in %d file%s\n" n
      (if n = 1 then "" else "s")
      (List.length files)
      (if List.length files = 1 then "" else "s");
  match (errors, findings) with
  | _ :: _, _ -> exit 2
  | [], _ :: _ -> exit 1
  | [], [] -> exit 0
