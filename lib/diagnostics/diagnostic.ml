(* Spanned, coded diagnostics and their renderers. *)

type severity = Code.severity = Error | Warning

type t = {
  code : string;
  severity : severity;
  span : Span.t;
  message : string;
  notes : string list;
  help : string option;
  fixes : Fix.t list;
}

let v ?(span = Span.none) ?(notes = []) ?help ?(fixes = []) ~severity ~code
    message =
  { code; severity; span; message; notes; help; fixes }

let errorf ?span ?notes ?help ?fixes ~code fmt =
  Printf.ksprintf
    (fun m -> v ?span ?notes ?help ?fixes ~severity:Error ~code m)
    fmt

let warningf ?span ?notes ?help ?fixes ~code fmt =
  Printf.ksprintf
    (fun m -> v ?span ?notes ?help ?fixes ~severity:Warning ~code m)
    fmt

let severity_name = function Error -> "error" | Warning -> "warning"

let is_error t = t.severity = Error

let count sev ts =
  List.length (List.filter (fun t -> t.severity = sev) ts)

let compare_source a b = Span.compare a.span b.span

let pp ppf t =
  if not (Span.is_none t.span) then Format.fprintf ppf "%a: " Span.pp t.span;
  Format.fprintf ppf "%s[%s]: %s" (severity_name t.severity) t.code t.message

let pp_rich ?source ppf t =
  pp ppf t;
  Format.pp_print_newline ppf ();
  let s = t.span in
  (match source with
   | Some lines
     when s.Span.line >= 1
          && s.Span.line <= Array.length lines
          && s.Span.col_start >= 1 ->
     let src = lines.(s.Span.line - 1) in
     let gutter = Printf.sprintf "%4d" s.Span.line in
     Format.fprintf ppf "%s | %s@." gutter src;
     let width = max 1 (s.Span.col_end - s.Span.col_start) in
     (* Clip the underline to the echoed line. *)
     let width =
       min width (max 1 (String.length src - s.Span.col_start + 2))
     in
     Format.fprintf ppf "     | %s%s@."
       (String.make (s.Span.col_start - 1) ' ')
       (String.make width '^')
   | _ -> ());
  List.iter (fun n -> Format.fprintf ppf "     = note: %s@." n) t.notes;
  (match t.help with
   | Some h -> Format.fprintf ppf "     = help: %s@." h
   | None -> ());
  List.iter
    (fun f ->
      if Fix.is_insertion f then
        Format.fprintf ppf "     = fix: insert %S@." f.Fix.replacement
      else Format.fprintf ppf "     = fix: replace with %S@." f.Fix.replacement)
    t.fixes

(* ----- JSON -------------------------------------------------------- *)

module Json = Vdram_json.Json

let to_json t =
  let s = t.span in
  let int n = Json.Num (float n) in
  let when_ cond members = if cond then members else [] in
  let fix (f : Fix.t) =
    let s = f.Fix.span in
    Json.Obj
      ([ ("line", int s.Span.line); ("col", int s.Span.col_start);
         ("end_col", int s.Span.col_end) ]
      @ when_ (Fix.is_multiline f) [ ("end_line", int f.Fix.line_end) ]
      @ [ ("replacement", Json.Str f.Fix.replacement) ])
  in
  Json.Obj
    ([ ("severity", Json.Str (severity_name t.severity));
       ("code", Json.Str t.code); ("message", Json.Str t.message) ]
    @ (match s.Span.file with Some f -> [ ("file", Json.Str f) ] | None -> [])
    @ when_ (s.Span.line > 0) [ ("line", int s.Span.line) ]
    @ when_ (s.Span.col_start > 0)
        [ ("col", int s.Span.col_start); ("end_col", int s.Span.col_end) ]
    @ when_ (t.notes <> [])
        [ ("notes", Json.List (List.map (fun n -> Json.Str n) t.notes)) ]
    @ (match t.help with Some h -> [ ("help", Json.Str h) ] | None -> [])
    @ when_ (t.fixes <> []) [ ("fixes", Json.List (List.map fix t.fixes)) ])
