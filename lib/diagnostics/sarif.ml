(* SARIF 2.1.0 renderer: lint reports as a code-scanning upload. *)

let schema_uri =
  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"

let tool_name = "vdram lint"
let tool_version = "1.0.0"

module Json = Vdram_json.Json

let level_name = function Code.Error -> "error" | Code.Warning -> "warning"

let uri_of file span =
  match span.Span.file with
  | Some f -> f
  | None -> ( match file with Some f -> f | None -> "<stdin>")

let int n = Json.Num (float n)
let text s = Json.Obj [ ("text", Json.Str s) ]
let artifact uri = ("artifactLocation", Json.Obj [ ("uri", Json.Str uri) ])

let region ?end_line (s : Span.t) =
  Json.Obj
    ([ ("startLine", int s.line) ]
    @ (match end_line with
       | Some l when l > s.line -> [ ("endLine", int l) ]
       | _ -> [])
    @
    if s.col_start >= 1 then
      [ ("startColumn", int s.col_start);
        ("endColumn", int (max s.col_start s.col_end)) ]
    else [])

let location uri (s : Span.t) =
  Json.Obj
    [ ( "physicalLocation",
        Json.Obj
          (artifact uri
           :: (if s.line >= 1 then [ ("region", region s) ] else [])) ) ]

let fix uri (d : Diagnostic.t) =
  let replacement f =
    Json.Obj
      [ ("deletedRegion", region ~end_line:f.Fix.line_end f.Fix.span);
        ("insertedContent", text f.Fix.replacement) ]
  in
  Json.Obj
    [ ("description", text ("fix " ^ d.code));
      ( "artifactChanges",
        Json.List
          [ Json.Obj
              [ artifact uri;
                ("replacements", Json.List (List.map replacement d.fixes)) ]
          ] ) ]

let result ~rule_index file (d : Diagnostic.t) =
  let uri = uri_of file d.span in
  Json.Obj
    ([ ("ruleId", Json.Str d.code); ("ruleIndex", int (rule_index d.code));
       ("level", Json.Str (level_name d.severity));
       ("message", text d.message);
       ("locations", Json.List [ location uri d.span ]) ]
    @ if d.fixes <> [] then [ ("fixes", Json.List [ fix uri d ]) ] else [])

let rule c =
  Json.Obj
    (("id", Json.Str c)
     ::
     (match Code.find c with
      | Some info ->
        [ ("shortDescription", text info.Code.title);
          ( "defaultConfiguration",
            Json.Obj [ ("level", Json.Str (level_name info.Code.severity)) ]
          ) ]
      | None -> []))

let render reports =
  let flat =
    List.concat_map (fun (file, ds) -> List.map (fun d -> (file, d)) ds)
      reports
  in
  let codes =
    List.sort_uniq compare (List.map (fun (_, d) -> d.Diagnostic.code) flat)
  in
  let rule_index c =
    let rec go i = function
      | [] -> 0
      | x :: _ when x = c -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 codes
  in
  let driver =
    Json.Obj
      [ ("name", Json.Str tool_name); ("version", Json.Str tool_version);
        ("rules", Json.List (List.map rule codes)) ]
  in
  Json.to_string
    (Json.Obj
       [ ("$schema", Json.Str schema_uri); ("version", Json.Str "2.1.0");
         ( "runs",
           Json.List
             [ Json.Obj
                 [ ("tool", Json.Obj [ ("driver", driver) ]);
                   ( "results",
                     Json.List
                       (List.map
                          (fun (file, d) -> result ~rule_index file d)
                          flat) ) ] ] ) ])
