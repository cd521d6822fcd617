type align = Left | Right

type t = {
  title : string;
  claim : string;
  header : string list;
  aligns : align list;
  rows : string list list;
  notes : string list;
}

let make ?(aligns = []) ?(notes = []) ~title ~claim ~header rows =
  List.iter
    (fun row ->
      if List.length row <> List.length header then
        invalid_arg "Table.make: row width differs from header")
    rows;
  { title; claim; header; aligns; rows; notes }

let align_of t i = match List.nth_opt t.aligns i with Some a -> a | None -> Right

let pad align width s =
  let gap = width - String.length s in
  if gap <= 0 then s
  else
    match align with
    | Left -> s ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ s

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  if t.claim <> "" then Buffer.add_string buf ("claim: " ^ t.claim ^ "\n");
  let cols = List.length t.header in
  let widths = Array.make cols 0 in
  let note_width row =
    List.iteri (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell) row
  in
  note_width t.header;
  List.iter note_width t.rows;
  let render_row row =
    let cells = List.mapi (fun i cell -> pad (align_of t i) widths.(i) cell) row in
    Buffer.add_string buf (String.concat "  " cells);
    Buffer.add_char buf '\n'
  in
  render_row t.header;
  let rule = Array.to_list (Array.mapi (fun _ w -> String.make w '-') widths) in
  render_row rule;
  List.iter render_row t.rows;
  List.iter (fun n -> Buffer.add_string buf ("note: " ^ n ^ "\n")) t.notes;
  Buffer.contents buf

(* lint: allow R3 — Table.print is an explicit stdout convenience for CLIs *)
let print t = print_string (render t)

let csv_escape field =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') field
  in
  if needs_quote then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""
  else field

let to_csv t =
  let line row = String.concat "," (List.map csv_escape row) ^ "\n" in
  String.concat "" (line t.header :: List.map line t.rows)

let markdown_escape field =
  String.concat "\\|" (String.split_on_char '|' field)

let to_markdown t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "**%s**\n\n" t.title);
  if t.claim <> "" then Buffer.add_string buf (Printf.sprintf "> %s\n\n" t.claim);
  let cells row = "| " ^ String.concat " | " (List.map markdown_escape row) ^ " |\n" in
  Buffer.add_string buf (cells t.header);
  let marker i =
    match align_of t i with Left -> ":---" | Right -> "---:"
  in
  Buffer.add_string buf
    ("|" ^ String.concat "|" (List.mapi (fun i _ -> marker i) t.header) ^ "|\n");
  List.iter (fun row -> Buffer.add_string buf (cells row)) t.rows;
  if not (List.is_empty t.notes) then begin
    Buffer.add_char buf '\n';
    List.iter (fun n -> Buffer.add_string buf ("- " ^ n ^ "\n")) t.notes
  end;
  Buffer.contents buf

let fmt_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.1f" x

let fmt_mean_pm (s : Rumor_prob.Stats.summary) =
  let ci =
    if s.n < 2 then 0.0
    else 1.96 *. s.stddev /. sqrt (float_of_int s.n)
  in
  Printf.sprintf "%s ±%s" (fmt_float s.mean) (fmt_float ci)
