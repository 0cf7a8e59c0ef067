(** Minimal JSON: a value type, a printer and a parser.

    The tracing subsystem must emit Chrome trace_event files and the
    test suite must parse them back without external dependencies, so
    this module implements the small JSON subset those files need
    (objects, arrays, strings, finite numbers, booleans, null). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing -------------------------------------------------------- *)

let escape_to buf s =
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

let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.12g" x

(** [to_buffer buf v] appends the serialization of [v] to [buf]. *)
let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x ->
      if Float.is_finite x then Buffer.add_string buf (number_to_string x)
      else Buffer.add_string buf "null"
  | Str s -> escape_to buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  to_buffer buf v;
  Buffer.contents buf

(* --- parsing --------------------------------------------------------- *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c ("expected " ^ word)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.s then fail c "unterminated string";
    let ch = c.s.[c.pos] in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> Buffer.contents buf
    | '\\' -> (
        if c.pos >= String.length c.s then fail c "bad escape";
        let e = c.s.[c.pos] in
        c.pos <- c.pos + 1;
        match e with
        | '"' | '\\' | '/' -> Buffer.add_char buf e; go ()
        | 'n' -> Buffer.add_char buf '\n'; go ()
        | 't' -> Buffer.add_char buf '\t'; go ()
        | 'r' -> Buffer.add_char buf '\r'; go ()
        | 'b' -> Buffer.add_char buf '\b'; go ()
        | 'f' -> Buffer.add_char buf '\012'; go ()
        | 'u' ->
            if c.pos + 4 > String.length c.s then fail c "bad \\u escape";
            let hex = String.sub c.s c.pos 4 in
            c.pos <- c.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail c "bad \\u escape"
            in
            (* non-BMP and multibyte fidelity are not needed for traces *)
            Buffer.add_char buf
              (if code < 0x80 then Char.chr code else '?');
            go ()
        | _ -> fail c "bad escape")
    | ch -> Buffer.add_char buf ch; go ()
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.s && is_num_char c.s.[c.pos] do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c "expected number";
  match float_of_string_opt (String.sub c.s start (c.pos - start)) with
  | Some x -> x
  | None -> fail c "malformed number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      expect c '{';
      skip_ws c;
      if peek c = Some '}' then begin
        expect c '}';
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              expect c ',';
              fields ((k, v) :: acc)
          | Some '}' ->
              expect c '}';
              List.rev ((k, v) :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      expect c '[';
      skip_ws c;
      if peek c = Some ']' then begin
        expect c ']';
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              expect c ',';
              items (v :: acc)
          | Some ']' ->
              expect c ']';
              List.rev (v :: acc)
          | _ -> fail c "expected ',' or ']'"
        in
        Arr (items [])
      end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)

(** [of_string s] parses one JSON document. *)
let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing garbage"
      else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors ------------------------------------------------------- *)

(** [member key v] is the field [key] of object [v], if any. *)
let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function Arr items -> Some items | _ -> None
