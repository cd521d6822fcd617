type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Error of { pos : int; msg : string }

let () =
  Printexc.register_printer (function
    | Error { pos; msg } ->
        Some (Printf.sprintf "JSON error at byte %d: %s" pos msg)
    | _ -> None)

let error pos msg = raise (Error { pos; msg })

(* UTF-8 encoding of one code point, for \uXXXX escapes. *)
let buf_add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let peek () = if !i < n then Some s.[!i] else None in
  let skip_ws () =
    while
      !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr i
    done
  in
  let expect c =
    if !i < n && s.[!i] = c then incr i
    else error !i (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !i + l <= n && String.sub s !i l = word then begin
      i := !i + l;
      v
    end
    else error !i (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !i + 4 > n then error !i "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> error !i "bad hex digit in \\u escape"
      in
      v := (!v lsl 4) lor d;
      incr i
    done;
    !v
  in
  (* called with [!i] just past the opening quote *)
  let parse_string_body () =
    let buf = Buffer.create 16 in
    let rec go () =
      if !i >= n then error !i "unterminated string"
      else
        match s.[!i] with
        | '"' ->
            incr i;
            Buffer.contents buf
        | '\\' ->
            incr i;
            if !i >= n then error !i "unterminated escape";
            (match s.[!i] with
            | '"' -> Buffer.add_char buf '"'; incr i
            | '\\' -> Buffer.add_char buf '\\'; incr i
            | '/' -> Buffer.add_char buf '/'; incr i
            | 'b' -> Buffer.add_char buf '\b'; incr i
            | 'f' -> Buffer.add_char buf '\012'; incr i
            | 'n' -> Buffer.add_char buf '\n'; incr i
            | 'r' -> Buffer.add_char buf '\r'; incr i
            | 't' -> Buffer.add_char buf '\t'; incr i
            | 'u' ->
                incr i;
                let cp = hex4 () in
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  (* high surrogate: a \uXXXX low surrogate must follow *)
                  if !i + 2 <= n && s.[!i] = '\\' && s.[!i + 1] = 'u' then begin
                    i := !i + 2;
                    let lo = hex4 () in
                    if lo < 0xDC00 || lo > 0xDFFF then
                      error !i "invalid low surrogate"
                    else
                      buf_add_utf8 buf
                        (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
                  end
                  else error !i "unpaired high surrogate"
                end
                else if cp >= 0xDC00 && cp <= 0xDFFF then
                  error !i "unpaired low surrogate"
                else buf_add_utf8 buf cp
            | c -> error !i (Printf.sprintf "invalid escape \\%c" c));
            go ()
        | c ->
            Buffer.add_char buf c;
            incr i;
            go ()
    in
    go ()
  in
  let parse_number () =
    let start = !i in
    if peek () = Some '-' then incr i;
    let is_float = ref false in
    let continue = ref true in
    while !continue && !i < n do
      (match s.[!i] with
      | '0' .. '9' -> incr i
      | '.' | 'e' | 'E' ->
          is_float := true;
          incr i
      | '+' | '-' ->
          (* only valid inside an exponent; a lenient scan is fine because
             float_of_string rejects the bad cases below *)
          incr i
      | _ -> continue := false)
    done;
    let text = String.sub s start (!i - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> error start (Printf.sprintf "bad number %S" text)
    else
      match int_of_string_opt text with
      | Some k -> Int k
      | None -> (
          (* out of int range: fall back to float *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> error start (Printf.sprintf "bad number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    if !i >= n then error !i "unexpected end of input"
    else
      match s.[!i] with
      | '{' ->
          incr i;
          parse_obj []
      | '[' ->
          incr i;
          parse_list []
      | '"' ->
          incr i;
          String (parse_string_body ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | '-' | '0' .. '9' -> parse_number ()
      | c -> error !i (Printf.sprintf "unexpected character %C" c)
  and parse_obj acc =
    skip_ws ();
    match peek () with
    | Some '}' ->
        incr i;
        Obj (List.rev acc)
    | _ ->
        if not (List.is_empty acc) then begin
          expect ',';
          skip_ws ()
        end;
        (match peek () with
        | Some '"' -> incr i
        | _ -> error !i "expected object key");
        let k = parse_string_body () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        parse_obj ((k, v) :: acc)
  and parse_list acc =
    skip_ws ();
    match peek () with
    | Some ']' ->
        incr i;
        List (List.rev acc)
    | _ ->
        if not (List.is_empty acc) then expect ',';
        let v = parse_value () in
        skip_ws ();
        parse_list (v :: acc)
  in
  let v = parse_value () in
  skip_ws ();
  if !i < n then error !i "trailing garbage after JSON value";
  v

let parse_result s =
  match parse s with
  | v -> Ok v
  | exception Error { pos; msg } ->
      Result.Error (Printf.sprintf "byte %d: %s" pos msg)

(* --- accessors ------------------------------------------------------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_int = function Int k -> Some k | _ -> None

let to_float = function
  | Float f -> Some f
  | Int k -> Some (float_of_int k)
  | Null -> Some nan
  | _ -> None

let to_string = function String s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None

(* --- emission -------------------------------------------------------- *)

let buf_add_string_literal buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* [string_of_int]'s text, written digit by digit from the leading one.
   The digits come from x = -|k| <= 0, which every int has (min_int has no
   positive twin).  Each step divides by the constant 10, which compiles to
   a multiply and shifts; [/] truncates toward zero, so q = x / 10 <= 0 and
   the last digit is 10q - x.  The recursion writes the digits of q first
   and is at most 19 deep. *)
let rec add_digits buf x =
  let q = x / 10 in
  if q < 0 then add_digits buf q;
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (10 * q) - x))

let buf_add_int buf k =
  if k < 0 then Buffer.add_char buf '-';
  add_digits buf (if k > 0 then -k else k)

(* the C routine Printf's [%.17g] ends in, without the format interpreter *)
external format_float : string -> float -> string = "caml_format_float"

let buf_add_float buf x =
  if Float.is_finite x then Buffer.add_string buf (format_float "%.17g" x)
  else Buffer.add_string buf "null"

let to_string_json v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int k -> buf_add_int buf k
    | Float f -> buf_add_float buf f
    | String s -> buf_add_string_literal buf s
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            go item)
          items;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            buf_add_string_literal buf k;
            Buffer.add_char buf ':';
            go item)
          kvs;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf
