type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Seq of t Seq.t

(* ------------------------------------------------------------------ *)
(* Renderer: one recursive pass into a Buffer, no per-item closures.    *)
(* ------------------------------------------------------------------ *)

let hex_digits = "0123456789abcdef"

let escape_char buf = function
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
      let code = Char.code c in
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf hex_digits.[code lsr 4];
      Buffer.add_char buf hex_digits.[code land 0xF]

(* Only the quote, the backslash and bytes below 0x20 are escaped; DEL and
   bytes >= 0x80 pass through. Runs of clean bytes are blitted in one go. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let clean_from = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s !clean_from (i - !clean_from);
      escape_char buf c;
      clean_from := i + 1
    end
  done;
  Buffer.add_substring buf s !clean_from (String.length s - !clean_from);
  Buffer.add_char buf '"'

(* [n >= 0], most significant digit first. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* At each List and Seq element boundary, [spill] empties a buffer holding
   [spill_size] bytes or more onto to_string's chunk list or out to
   to_channel's channel (to_buffer's keeps them), so no document doubles. *)
type out = { buf : Buffer.t; spill : Buffer.t -> unit }

let spill_size = 65536

let rec render o = function
  | Null -> Buffer.add_string o.buf "null"
  | Bool b -> Buffer.add_string o.buf (if b then "true" else "false")
  | Int n ->
      if n >= 0 then add_digits o.buf n
      else Buffer.add_string o.buf (string_of_int n)
  | Float f ->
      if Float.is_finite f then
        Buffer.add_string o.buf (Printf.sprintf "%.12g" f)
      else Buffer.add_string o.buf "null"
  | String s -> escape_string o.buf s
  | List items ->
      Buffer.add_char o.buf '[';
      (match items with
      | [] -> ()
      | item :: items ->
          render o item;
          render_items o items);
      Buffer.add_char o.buf ']'
  | Seq items ->
      Buffer.add_char o.buf '[';
      (match items () with
      | Seq.Nil -> ()
      | Seq.Cons (item, items) ->
          render o item;
          render_seq o items);
      Buffer.add_char o.buf ']'
  | Obj fields ->
      Buffer.add_char o.buf '{';
      (match fields with
      | [] -> ()
      | field :: fields ->
          render_field o field;
          render_fields o fields);
      Buffer.add_char o.buf '}'

(* The [render_*] continuations each render a ',' before every element. *)
and render_items o = function
  | [] -> ()
  | item :: items ->
      if Buffer.length o.buf >= spill_size then o.spill o.buf;
      Buffer.add_char o.buf ',';
      render o item;
      render_items o items

and render_seq o items =
  match items () with
  | Seq.Nil -> ()
  | Seq.Cons (item, items) ->
      if Buffer.length o.buf >= spill_size then o.spill o.buf;
      Buffer.add_char o.buf ',';
      render o item;
      render_seq o items

and render_field o (key, value) =
  escape_string o.buf key;
  Buffer.add_char o.buf ':';
  render o value

and render_fields o = function
  | [] -> ()
  | field :: fields ->
      Buffer.add_char o.buf ',';
      render_field o field;
      render_fields o fields

let to_buffer buf t = render { buf; spill = ignore } t

let to_string t =
  let chunks = ref [] and buf = Buffer.create 256 in
  let spill b = chunks := Buffer.contents b :: !chunks; Buffer.clear b in
  render { buf; spill } t;
  if !chunks = [] then Buffer.contents buf
  else (spill buf; String.concat "" (List.rev !chunks))

let to_channel oc t =
  let buf = Buffer.create 256 in
  let spill b = Buffer.output_buffer oc b; Buffer.clear b in
  render { buf; spill } t;
  spill buf

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over a string with an explicit cursor.     *)
(* ------------------------------------------------------------------ *)

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  failwith (Printf.sprintf "Json.of_string: %s at offset %d" msg cur.pos)

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      skip_ws cur
  | Some _ | None -> ()

let expect cur c =
  match peek cur with
  | Some got when got = c -> advance cur
  | Some got -> fail cur (Printf.sprintf "expected %c, found %c" c got)
  | None -> fail cur (Printf.sprintf "expected %c, found end of input" c)

let literal cur word value =
  let len = String.length word in
  if
    cur.pos + len <= String.length cur.src
    && String.sub cur.src cur.pos len = word
  then begin
    cur.pos <- cur.pos + len;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

(* Exactly four hex digits; the offset of a failure is the first of them. *)
let hex4 cur =
  if cur.pos + 4 > String.length cur.src then fail cur "truncated \\u escape";
  let code = ref 0 in
  for i = cur.pos to cur.pos + 3 do
    let digit =
      match cur.src.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail cur "bad \\u escape"
    in
    code := (!code lsl 4) lor digit
  done;
  cur.pos <- cur.pos + 4;
  !code

(* The code point of a [\u] escape whose [u] was just consumed: a high
   surrogate must be followed by an escaped low one, and the pair is one
   code point. *)
let code_point cur =
  let code = hex4 cur in
  if code >= 0xDC00 && code <= 0xDFFF then fail cur "lone low surrogate"
  else if code >= 0xD800 && code <= 0xDBFF then begin
    if
      cur.pos + 2 <= String.length cur.src
      && cur.src.[cur.pos] = '\\'
      && cur.src.[cur.pos + 1] = 'u'
    then cur.pos <- cur.pos + 2
    else fail cur "lone high surrogate";
    let low = hex4 cur in
    if low < 0xDC00 || low > 0xDFFF then fail cur "lone high surrogate";
    0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
  end
  else code

let add_utf8 buf code =
  let cont shift = Char.chr (0x80 lor ((code lsr shift) land 0x3F)) in
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (cont 0)
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (cont 6);
    Buffer.add_char buf (cont 0)
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (cont 12);
    Buffer.add_char buf (cont 6);
    Buffer.add_char buf (cont 0)
  end

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | None -> fail cur "unterminated escape"
        | Some c ->
            advance cur;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' -> add_utf8 buf (code_point cur)
            | c -> fail cur (Printf.sprintf "bad escape \\%c" c));
            loop ())
    | Some c when c < ' ' -> fail cur "unescaped control character in string"
    | Some c ->
        advance cur;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

(* The JSON number grammar:
   [-? (0 | [1-9][0-9]* ) (.[0-9]+)? ([eE][+-]?[0-9]+)?]. *)
let parse_number cur =
  let start = cur.pos in
  let at c = peek cur = Some c in
  let is_digit () =
    match peek cur with Some '0' .. '9' -> true | Some _ | None -> false
  in
  let digits () =
    if not (is_digit ()) then fail cur "expected a digit";
    while is_digit () do
      advance cur
    done
  in
  if at '-' then advance cur;
  if at '0' then begin
    advance cur;
    if is_digit () then fail cur "leading zero"
  end
  else digits ();
  let fraction = at '.' in
  if fraction then begin
    advance cur;
    digits ()
  end;
  let exponent = at 'e' || at 'E' in
  if exponent then begin
    advance cur;
    if at '+' || at '-' then advance cur;
    digits ()
  end;
  let token = String.sub cur.src start (cur.pos - start) in
  if fraction || exponent then Float (float_of_string token)
  else
    match int_of_string_opt token with
    | Some n -> Int n
    | None -> Float (float_of_string token) (* integer overflow *)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> String (parse_string cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        List []
      end
      else begin
        let items = ref [] in
        let rec loop () =
          items := parse_value cur :: !items;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              loop ()
          | Some ']' -> advance cur
          | _ -> fail cur "expected , or ] in array"
        in
        loop ();
        List (List.rev !items)
      end
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec loop () =
          skip_ws cur;
          let key = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let value = parse_value cur in
          fields := (key, value) :: !fields;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              advance cur;
              loop ()
          | Some '}' -> advance cur
          | _ -> fail cur "expected , or } in object"
        in
        loop ();
        Obj (List.rev !fields)
      end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let cur = { src = s; pos = 0 } in
  let value = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  value

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ | Seq _ -> None

let rec equal a b =
  match (a, b) with
  | Seq s, _ -> equal (List (List.of_seq s)) b
  | _, Seq s -> equal a (List (List.of_seq s))
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b
  | Int a, Float b | Float b, Int a -> float_of_int a = b
  | String a, String b -> a = b
  | List a, List b ->
      List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
      List.length a = List.length b
      && List.for_all2
           (fun (ka, va) (kb, vb) -> ka = kb && equal va vb)
           a b
  | _ -> false
