(* Per-line suppression comments.

   A source line containing the comment

     (* lint: allow RN — the reason *)

   suppresses findings for rule RN (id or short name, case-insensitive)
   reported on that line or on the line directly below, so both trailing
   comments and comment-above styles work. Several rules may be listed,
   separated by spaces or commas; everything after the rule list is free-form
   justification. Only a marker inside a comment counts: one in a string
   literal (a test writing a fixture, say) suppresses nothing.

   Each line remembers which of its tokens [allows] matched, so [stale] can
   name the listed rules that ran on the file and were never matched: an
   allow that suppresses nothing. *)

type entry = {
  col : int;  (** column of the line's first marker *)
  tokens : string list;
  mutable used : string list;  (** tokens [allows] has matched *)
}

type t = (int, entry) Hashtbl.t

let marker = "lint: allow"

let is_token_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_'

(* Tokens following the marker on the same line. Justification text is
   harmless here: [allows] only ever tests membership of a known rule id or
   name, so stray words never enable anything. *)
let tokens_after line start =
  let n = String.length line in
  let rec skip_sep i =
    if i < n && (line.[i] = ' ' || line.[i] = '\t' || line.[i] = ',') then
      skip_sep (i + 1)
    else i
  in
  let rec take i j =
    if j < n && is_token_char line.[j] then take i (j + 1)
    else (String.sub line i (j - i), j)
  in
  let rec loop acc i =
    let i = skip_sep i in
    if i >= n || not (is_token_char line.[i]) then List.rev acc
    else
      let tok, j = take i i in
      loop (String.lowercase_ascii tok :: acc) j
  in
  loop [] start

let find_marker line from =
  let n = String.length line and m = String.length marker in
  let rec search i =
    if i + m > n then None
    else if String.sub line i m = marker then Some (i + m)
    else search (i + 1)
  in
  if from > n then None else search from

(* All markers on the line, not just the first: two allow comments on one
   line each contribute their rule list. *)
let rec markers_from line from acc =
  match find_marker line from with
  | None -> List.rev acc
  | Some start -> markers_from line start (start :: acc)

(* The byte ranges of the source's comments, from the compiler's lexer; a
   source it rejects keeps every marker (the parse pass reports it). *)
let comment_spans source =
  let lexbuf = Lexing.from_string source in
  Lexer.init ();
  let rec drain () = match Lexer.token lexbuf with Parser.EOF -> () | _ -> drain () in
  match drain () with
  | () ->
      Some
        (List.map
           (fun (_, (loc : Location.t)) -> (loc.loc_start.pos_cnum, loc.loc_end.pos_cnum))
           (Lexer.comments ()))
  | exception Lexer.Error _ -> None

let scan source : t =
  let table = Hashtbl.create 8 in
  let in_comment =
    match comment_spans source with
    | None -> fun _ -> true
    | Some spans -> fun ofs -> List.exists (fun (lo, hi) -> lo <= ofs && ofs < hi) spans
  in
  let m = String.length marker in
  let line_start = ref 0 in
  List.iteri
    (fun idx line ->
      let starts =
        List.filter (fun s -> in_comment (!line_start + s - m)) (markers_from line 0 [])
      in
      (match starts with
      | [] -> ()
      | first :: _ -> (
          match List.concat_map (tokens_after line) starts with
          | [] -> ()
          | tokens -> Hashtbl.replace table (idx + 1) { col = first - m; tokens; used = [] }));
      line_start := !line_start + String.length line + 1)
    (String.split_on_char '\n' source);
  table

(* Both covering lines are consulted, so an allow that repeats another's
   rule is not reported stale for having been shadowed. *)
let allows table ~line ~id ~name =
  let id = String.lowercase_ascii id and name = String.lowercase_ascii name in
  let hit l =
    match Hashtbl.find_opt table l with
    | None -> false
    | Some e -> (
        match List.filter (fun t -> t = id || t = name) e.tokens with
        | [] -> false
        | matched ->
            e.used <- matched @ e.used;
            true)
  in
  let here = hit line in
  let above = hit (line - 1) in
  here || above

let stale table ~file ~ran =
  Hashtbl.fold
    (fun line e acc ->
      List.fold_left
        (fun acc tok ->
          match
            List.find_opt
              (fun (id, name) ->
                tok = String.lowercase_ascii id || tok = String.lowercase_ascii name)
              ran
          with
          | Some (id, name) when not (List.mem tok e.used) ->
              Finding.make_at ~rule:id ~name ~file ~line ~col:e.col
                (Printf.sprintf
                   "stale suppression: this allow names %s but silences no %s \
                    finding on its line or the next; delete it"
                   id id)
              :: acc
          | _ -> acc)
        acc e.tokens)
    table []

(* Hot-path markers for R10: a line containing [(* lint: hot *)] marks the
   definition starting on that line or the next one. *)

let hot_marker = "lint: hot"

let hot_lines source : int list =
  let m = String.length hot_marker in
  let hits = ref [] in
  List.iteri
    (fun idx line ->
      let n = String.length line in
      let rec search i =
        if i + m > n then ()
        else if String.sub line i m = hot_marker then hits := (idx + 1) :: !hits
        else search (i + 1)
      in
      search 0)
    (String.split_on_char '\n' source);
  List.rev !hits
