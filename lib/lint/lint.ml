(* The lint driver: description in, sorted diagnostics out. *)

module Parser = Vdram_dsl.Parser
module Elaborate = Vdram_dsl.Elaborate
module Ast = Vdram_dsl.Ast
module Validate = Vdram_core.Validate
module Span = Vdram_diagnostics.Span
module D = Vdram_diagnostics.Diagnostic
module Fix = Vdram_diagnostics.Fix
module Sarif = Vdram_diagnostics.Sarif
module Json = Vdram_json.Json

type report = {
  file : string option;
  source : string array;
  diagnostics : D.t list;
}

let errors r = D.count D.Error r.diagnostics
let warnings r = D.count D.Warning r.diagnostics

(* Where each spanless Validate finding belongs in the source: the
   statement (and argument) whose value the check is about.  Defaulted
   values legitimately have no span. *)
let validate_location =
  [ ("V0301", ("voltages", "supply", Some "vpp"));
    ("V0302", ("voltages", "supply", Some "vbl"));
    ("V0303", ("voltages", "supply", Some "vint"));
    ("V0304", ("specification", "density", Some "mbits"));
    ("V0305", ("specification", "density", Some "mbits"));
    ("V0306", ("floorplanphysical", "cellarray", Some "page"));
    ("V0307", ("floorplanphysical", "cellarray", Some "sastripe"));
    ("V0308", ("floorplanphysical", "cellarray", Some "lwdstripe"));
    ("V0309", ("specification", "interface", Some "activation"));
    ("V0310", ("specification", "burst", Some "length"));
    ("V0311", ("specification", "burst", Some "length"));
    ("V0312", ("voltages", "efficiency", None));
    ("V0313", ("logicblocks", "block", Some "toggle"));
    ("V0314", ("specification", "interface", Some "toggle")) ]

let place_validate ast (d : D.t) =
  if not (Span.is_none d.D.span) then d
  else
    match List.assoc_opt d.D.code validate_location with
    | None -> d
    | Some (section, keyword, key) ->
      { d with D.span = Passes.locate ast ~section ~keyword ?key () }

(* A pass must never crash the linter: surface the exception as a
   spanless internal error instead. *)
let guarded pass =
  try pass () with
  | e ->
    [ D.errorf ~code:"V0200" "internal analysis failure: %s"
        (Printexc.to_string e) ]

(* The dimensions pass and error-accumulating elaboration see the same
   literals, so the same finding can be reported twice at one span;
   keep the first occurrence of every (code, span) pair, then drop
   warnings that sit exactly on a span an error already points at
   (e.g. an unknown-keyword warning under an unknown-bus error). *)
let dedup diags =
  let seen = Hashtbl.create 64 in
  let keep =
    List.filter
      (fun (d : D.t) ->
        let k = (d.D.code, d.D.span) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      diags
  in
  let error_spans =
    List.filter_map
      (fun (d : D.t) ->
        if D.is_error d && not (Span.is_none d.D.span) then Some d.D.span
        else None)
      keep
  in
  List.filter
    (fun (d : D.t) ->
      D.is_error d
      || Span.is_none d.D.span
      || not (List.mem d.D.span error_spans))
    keep

let run ?file source =
  let result, parse_warnings = Parser.parse_with_warnings ?file source in
  let diagnostics =
    match result with
    | Error e -> parse_warnings @ [ Parser.to_diagnostic e ]
    | Ok ast ->
      let dims = guarded (fun () -> Passes.dimensions ast) in
      let config, elab =
        try Elaborate.elaborate ast
        with e ->
          ( None,
            [ D.errorf ~code:"V0200" "internal elaboration failure: %s"
                (Printexc.to_string e) ] )
      in
      let front = dedup (parse_warnings @ dims @ elab) in
      if List.exists D.is_error front then front
      else begin
        match config with
        | None -> front
        | Some { Elaborate.config = cfg; pattern } ->
          let semantic =
            guarded (fun () ->
                List.map (place_validate ast) (Validate.check cfg))
          in
          let physics = guarded (fun () -> Passes.finiteness cfg) in
          let times = guarded (fun () -> Passes.timing ~ast cfg) in
          let fp = guarded (fun () -> Passes.floorplan ~ast cfg) in
          let pat =
            match pattern with
            | None -> []
            | Some p ->
              guarded (fun () -> Passes.pattern ~ast cfg p)
              @ guarded (fun () -> Passes.bank_legality ~ast cfg p)
          in
          front @ semantic @ physics @ times @ fp @ pat
      end
  in
  {
    file;
    source = Array.of_list (String.split_on_char '\n' source);
    diagnostics = List.stable_sort D.compare_source diagnostics;
  }

let run_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | source -> run ~file:path source
  | exception Sys_error msg ->
    {
      file = Some path;
      source = [||];
      diagnostics = [ D.errorf ~code:"V0006" "%s" msg ];
    }

let suppress ~codes r =
  if codes = [] then r
  else
    {
      r with
      diagnostics =
        List.filter
          (fun (d : D.t) -> D.is_error d || not (List.mem d.D.code codes))
          r.diagnostics;
    }

let pp_text ppf r =
  List.iter
    (fun d -> Format.fprintf ppf "%a@." (D.pp_rich ~source:r.source) d)
    r.diagnostics

let to_json r =
  let int n = Json.Num (float n) in
  Json.Obj
    ((match r.file with Some f -> [ ("file", Json.Str f) ] | None -> [])
    @ [ ("errors", int (errors r)); ("warnings", int (warnings r));
        ("diagnostics", Json.List (List.map D.to_json r.diagnostics)) ])

(* ----- fix-its and machine formats --------------------------------- *)

(* [only] narrows fix harvesting to the diagnostics carrying one code,
   so a caller can apply a single class of rewrite and leave the rest
   of the file untouched. *)
let fixes ?only r =
  let wanted (d : D.t) =
    match only with None -> true | Some c -> String.equal c d.D.code
  in
  List.concat_map
    (fun (d : D.t) -> if wanted d then d.D.fixes else [])
    r.diagnostics

let apply_fixes ?only r =
  let source = String.concat "\n" (Array.to_list r.source) in
  Fix.apply ~source (fixes ?only r)

let preview_fixes ?(context = 3) ?only r =
  let before = String.concat "\n" (Array.to_list r.source) in
  let after, applied = Fix.apply ~source:before (fixes ?only r) in
  if applied = 0 then None
  else
    let path = Option.value ~default:"<stdin>" r.file in
    Some (Udiff.render ~context ~path ~before ~after (), applied)

let to_sarif reports =
  Sarif.render
    (List.map (fun r -> (r.file, r.diagnostics)) reports)

let exit_code ?(deny_warnings = false) reports =
  if List.exists (fun r -> errors r > 0) reports then 2
  else if deny_warnings && List.exists (fun r -> warnings r > 0) reports
  then 1
  else 0
