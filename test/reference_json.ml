(* Hmn_prelude.Json's printer and parser as they were before the
   printer gained its integer, escape and indent fast paths and the
   parser read characters by index: number rendering by Printf, a
   per-character escape, a String.make per indented line, and a parser
   that allocates [Some c] per peek and has no nesting limit. Retained
   verbatim as the oracle for the printer and parser properties in
   test_prelude.ml and for reference_compile.ml. Do not "improve" this
   file — its value is that it is the old code. *)

type t = Hmn_prelude.Json.t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let indent level =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * level) ' ')
    end
  in
  let rec emit level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num x -> Buffer.add_string buf (number_to_string x)
    | Str s -> escape_string buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          indent (level + 1);
          emit (level + 1) x)
        xs;
      indent level;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          indent (level + 1);
          escape_string buf k;
          Buffer.add_string buf (if pretty then ": " else ":");
          emit (level + 1) v)
        fields;
      indent level;
      Buffer.add_char buf '}'
  in
  emit 0 t;
  Buffer.contents buf

(* ---- parsing ---- *)

exception Parse_error of int * string

let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | Some d -> error (Printf.sprintf "expected '%c', found '%c'" c d)
    | None -> error (Printf.sprintf "expected '%c', found end of input" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub input !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else error ("invalid literal; expected " ^ word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then error "truncated \\u escape";
    let s = String.sub input !pos 4 in
    pos := !pos + 4;
    match int_of_string_opt ("0x" ^ s) with
    | Some v -> v
    | None -> error "invalid \\u escape"
  in
  let utf8_of_code buf code =
    (* Encode a Unicode scalar value as UTF-8. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> error "unterminated escape"
        | Some c -> (
          advance ();
          match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            let code = parse_hex4 () in
            (* Surrogate pair handling. *)
            if code >= 0xD800 && code <= 0xDBFF then begin
              if !pos + 1 < n && input.[!pos] = '\\' && input.[!pos + 1] = 'u' then begin
                pos := !pos + 2;
                let low = parse_hex4 () in
                if low >= 0xDC00 && low <= 0xDFFF then
                  utf8_of_code buf
                    (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
                else error "invalid low surrogate"
              end
              else error "lone high surrogate"
            end
            else utf8_of_code buf code
          | c -> error (Printf.sprintf "invalid escape '\\%c'" c)));
        go ()
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let s = String.sub input start (!pos - start) in
    match float_of_string_opt s with
    | Some x -> x
    | None -> error ("invalid number: " ^ s)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((key, value) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, value) :: acc)
          | _ -> error "expected ',' or '}' in object"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec items acc =
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (value :: acc)
          | Some ']' ->
            advance ();
            List.rev (value :: acc)
          | _ -> error "expected ',' or ']' in array"
        in
        Arr (items [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> Num (parse_number ())
    | Some c -> error (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
    Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)
