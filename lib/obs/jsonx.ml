(* Minimal JSON tree: just enough to parse and re-emit the repo's own
   machine-readable artifacts (ledger lines, serve answers) without pulling
   a JSON dependency into the build.  Not a general-purpose validator: it
   accepts the JSON grammar plus a few lenient corners (number syntax is
   delegated to [float_of_string]). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------ parsing ------------------------------ *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> error "expected %C at offset %d, got %C" c st.pos d
  | None -> error "expected %C at offset %d, got end of input" c st.pos

let lit st l v =
  let k = String.length l in
  if st.pos + k <= String.length st.src && String.sub st.src st.pos k = l then begin
    st.pos <- st.pos + k;
    v
  end
  else error "bad literal at offset %d" st.pos

let utf8_of_code buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error "unterminated string at offset %d" st.pos
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
      st.pos <- st.pos + 1;
      (match peek st with
      | None -> error "unterminated escape at offset %d" st.pos
      | Some c ->
        st.pos <- st.pos + 1;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if st.pos + 4 > String.length st.src then error "truncated \\u escape";
          let hex = String.sub st.src st.pos 4 in
          st.pos <- st.pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some u -> utf8_of_code buf u
          | None -> error "bad \\u escape %S" hex)
        | c -> error "bad escape '\\%c'" c));
      go ()
    | Some c ->
      st.pos <- st.pos + 1;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
  while st.pos < String.length st.src && is_num st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then error "expected a value at offset %d" start;
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some v -> Num v
  | None -> error "bad number at offset %d" start

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error "unexpected end of input"
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          members ((key, v) :: acc)
        | Some '}' ->
          st.pos <- st.pos + 1;
          List.rev ((key, v) :: acc)
        | _ -> error "expected ',' or '}' at offset %d" st.pos
      in
      Obj (members [])
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          elems (v :: acc)
        | Some ']' ->
          st.pos <- st.pos + 1;
          List.rev (v :: acc)
        | _ -> error "expected ',' or ']' at offset %d" st.pos
      in
      Arr (elems [])
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> lit st "true" (Bool true)
  | Some 'f' -> lit st "false" (Bool false)
  | Some 'n' -> lit st "null" Null
  | Some _ -> parse_number st

let parse_exn s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then error "trailing garbage at offset %d" st.pos;
  v

let parse s = match parse_exn s with v -> Ok v | exception Parse_error msg -> Error msg

(* ----------------------------- printing ----------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let num_to_string v =
  if Float.is_nan v then "null" (* NaN has no JSON encoding; degrade to null *)
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> Buffer.add_string buf (num_to_string v)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      l;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        write buf v)
      members;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ----------------------------- accessors ----------------------------- *)

let member key = function Obj members -> List.assoc_opt key members | _ -> None

let to_float_opt = function Num v -> Some v | _ -> None
let to_int_opt = function Num v when Float.is_integer v -> Some (int_of_float v) | _ -> None
let to_string_opt = function Str s -> Some s | _ -> None
let to_list_opt = function Arr l -> Some l | _ -> None

let float_member key json = Option.bind (member key json) to_float_opt
let int_member key json = Option.bind (member key json) to_int_opt
let string_member key json = Option.bind (member key json) to_string_opt
let list_member key json = Option.bind (member key json) to_list_opt
