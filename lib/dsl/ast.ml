(* AST of the description language. *)

module Span = Vdram_diagnostics.Span

type stmt = {
  line : int;
  keyword : string;
  keyword_span : Span.t;
  args : (string * string) list;
  arg_spans : (string * Span.t) list;
  positional : string list;
  positional_spans : Span.t list;
}

type section = {
  section_line : int;
  section_name : string;
  section_span : Span.t;
  stmts : stmt list;
}

type t = section list

(* [String.lowercase_ascii a = String.lowercase_ascii b], without the
   copies. *)
let equal_ci a b =
  let n = String.length a in
  n = String.length b
  &&
  let rec go i =
    i = n
    || Char.lowercase_ascii a.[i]
       = Char.lowercase_ascii b.[i]
       && go (i + 1)
  in
  go 0

let rec assoc_ci key = function
  | [] -> None
  | (k, v) :: rest -> if equal_ci k key then Some v else assoc_ci key rest

let arg stmt key = assoc_ci key stmt.args

let arg_span stmt key = assoc_ci key stmt.arg_spans

let find_sections t name =
  List.filter (fun s -> equal_ci s.section_name name) t

let pp_stmt ppf s =
  Format.fprintf ppf "%s" s.keyword;
  List.iter (fun p -> Format.fprintf ppf " %s" p) s.positional;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) s.args

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun sec ->
      Format.fprintf ppf "%s@," sec.section_name;
      List.iter (fun s -> Format.fprintf ppf "  %a@," pp_stmt s) sec.stmts)
    t;
  Format.fprintf ppf "@]"
