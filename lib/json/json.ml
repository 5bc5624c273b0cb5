(* Minimal JSON: recursive-descent parser with a depth limit, a compact
   single-line printer and a one-member-per-line printer.  See json.mli
   for the contract. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Lit of string
  | List of t list
  | Obj of (string * t) list

(* ----- printer ----------------------------------------------------- *)

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
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to buf x =
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else if Float.is_integer x && Float.abs x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else begin
    (* Shortest representation that round-trips. *)
    let s = Printf.sprintf "%.15g" x in
    let s = if float_of_string s = x then s else Printf.sprintf "%.17g" x in
    Buffer.add_string buf s
  end

(* [spaced] separates with ", " and ": " instead of "," and ":". *)
let sep ~spaced buf c =
  Buffer.add_char buf c;
  if spaced then Buffer.add_char buf ' '

let rec value_to ~spaced buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> number_to buf x
  | Str s -> escape_to buf s
  | Lit s -> Buffer.add_string buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then sep ~spaced buf ',';
        value_to ~spaced buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj ms ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then sep ~spaced buf ',';
        escape_to buf k;
        sep ~spaced buf ':';
        value_to ~spaced buf v)
      ms;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  value_to ~spaced:false buf v;
  Buffer.contents buf

let to_lines v =
  let buf = Buffer.create 1024 in
  let value = value_to ~spaced:true buf in
  (match v with
   | Obj (_ :: _ as ms) ->
     Buffer.add_string buf "{\n";
     List.iteri
       (fun i (k, v) ->
         if i > 0 then Buffer.add_string buf ",\n";
         Buffer.add_string buf "  ";
         escape_to buf k;
         Buffer.add_string buf ": ";
         match v with
         | List (_ :: _ as vs) ->
           Buffer.add_string buf "[\n";
           List.iteri
             (fun i v ->
               if i > 0 then Buffer.add_string buf ",\n";
               Buffer.add_string buf "    ";
               value v)
             vs;
           Buffer.add_string buf "\n  ]"
         | v -> value v)
       ms;
     Buffer.add_string buf "\n}"
   | v -> value v);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ----- parser ------------------------------------------------------ *)

exception Bad of string

type state = { s : string; mutable pos : int; max_depth : int }

let error st fmt =
  Printf.ksprintf (fun m -> raise (Bad (Printf.sprintf "%s at byte %d" m st.pos))) fmt

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    && (match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> error st "expected %C, found %C" c c'
  | None -> error st "expected %C, found end of input" c

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    v
  end
  else error st "bad literal"

let hex4 st =
  if st.pos + 4 > String.length st.s then error st "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let c = st.s.[st.pos + i] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> error st "bad hex digit %C in \\u escape" c
    in
    v := (!v lsl 4) lor d
  done;
  st.pos <- st.pos + 4;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' ->
      st.pos <- st.pos + 1;
      (match peek st with
       | None -> error st "unterminated escape"
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
            let u = hex4 st in
            if u >= 0xD800 && u <= 0xDBFF then begin
              (* High surrogate: a low surrogate must follow. *)
              if
                st.pos + 2 <= String.length st.s
                && st.s.[st.pos] = '\\'
                && st.s.[st.pos + 1] = 'u'
              then begin
                st.pos <- st.pos + 2;
                let lo = hex4 st in
                if lo < 0xDC00 || lo > 0xDFFF then
                  error st "bad low surrogate"
                else
                  Buffer.add_utf_8_uchar buf
                    (Uchar.of_int
                       (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)))
              end
              else error st "lone high surrogate"
            end
            else if u >= 0xDC00 && u <= 0xDFFF then error st "lone low surrogate"
            else Buffer.add_utf_8_uchar buf (Uchar.of_int u)
          | c -> error st "bad escape \\%C" c));
      go ()
    | Some c when Char.code c < 0x20 -> error st "raw control character in string"
    | Some c ->
      st.pos <- st.pos + 1;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let accept p =
    match peek st with
    | Some c when p c -> st.pos <- st.pos + 1; true
    | _ -> false
  in
  let digits () =
    let any = ref false in
    while accept (function '0' .. '9' -> true | _ -> false) do any := true done;
    !any
  in
  ignore (accept (fun c -> c = '-'));
  if not (digits ()) then error st "bad number";
  if accept (fun c -> c = '.') && not (digits ()) then error st "bad number";
  if accept (function 'e' | 'E' -> true | _ -> false) then begin
    ignore (accept (function '+' | '-' -> true | _ -> false));
    if not (digits ()) then error st "bad exponent"
  end;
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some x -> x
  | None -> error st "bad number %S" text

let rec parse_value st depth =
  if depth > st.max_depth then error st "nesting deeper than %d" st.max_depth;
  skip_ws st;
  match peek st with
  | None -> error st "empty input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> Str (parse_string st)
  | Some ('-' | '0' .. '9') -> Num (parse_number st)
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin st.pos <- st.pos + 1; List [] end
    else begin
      let items = ref [] in
      let rec go () =
        items := parse_value st (depth + 1) :: !items;
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1; go ()
        | Some ']' -> st.pos <- st.pos + 1
        | _ -> error st "expected ',' or ']'"
      in
      go ();
      List (List.rev !items)
    end
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin st.pos <- st.pos + 1; Obj [] end
    else begin
      let members = ref [] in
      let rec go () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        members := (k, v) :: !members;
        skip_ws st;
        match peek st with
        | Some ',' -> st.pos <- st.pos + 1; go ()
        | Some '}' -> st.pos <- st.pos + 1
        | _ -> error st "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !members)
    end
  | Some c -> error st "unexpected %C" c

let parse ?(max_depth = 64) s =
  let st = { s; pos = 0; max_depth } in
  match parse_value st 0 with
  | v ->
    skip_ws st;
    if st.pos < String.length s then
      Error (Printf.sprintf "trailing garbage at byte %d" st.pos)
    else Ok v
  | exception Bad m -> Error m

(* ----- accessors --------------------------------------------------- *)

let mem k = function Obj ms -> List.assoc_opt k ms | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num x -> Some x | _ -> None

let int_ = function
  | Num x when Float.is_integer x && Float.abs x <= 1e9 -> Some (int_of_float x)
  | _ -> None

let bool_ = function Bool b -> Some b | _ -> None
let list_ = function List vs -> Some vs | _ -> None
let obj = function Obj ms -> Some ms | _ -> None
