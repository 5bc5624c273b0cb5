(* Tests of the diagnostics engine and the lint passes: stable codes,
   source spans, golden renderings, and the physical-consistency
   analyses behind `vdram lint`. *)

module Code = Vdram_diagnostics.Code
module Span = Vdram_diagnostics.Span
module D = Vdram_diagnostics.Diagnostic
module Parser = Vdram_dsl.Parser
module Lint = Vdram_lint.Lint
module Passes = Vdram_lint.Passes
module Config = Vdram_core.Config
module Spec = Vdram_core.Spec
module Validate = Vdram_core.Validate
module Params = Vdram_tech.Params

let run src = (Lint.run src).Lint.diagnostics

let codes src = List.map (fun (d : D.t) -> d.D.code) (run src)

let has msg code src =
  Helpers.check_true
    (Printf.sprintf "%s emits %s (got: %s)" msg code
       (String.concat "," (codes src)))
    (List.mem code (codes src))

let find_code code src =
  List.find_opt (fun (d : D.t) -> d.D.code = code) (run src)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay
    && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* A minimal clean description: everything defaults from the 65 nm
   roadmap entry. *)
let base = "Device\nPart name=t node=65nm\n"

let in_section section stmt = base ^ "\n" ^ section ^ "\n" ^ stmt ^ "\n"

(* ----- registry ---------------------------------------------------- *)

let test_registry () =
  let cs = List.map (fun (i : Code.info) -> i.Code.code) Code.all in
  Helpers.check_true "codes unique"
    (List.length cs = List.length (List.sort_uniq compare cs));
  Helpers.check_true "codes ordered" (List.sort compare cs = cs);
  List.iter
    (fun c ->
      Helpers.check_true (c ^ " format")
        (String.length c = 5 && c.[0] = 'V'))
    cs;
  (match Code.find "V0301" with
   | Some i -> Helpers.check_true "V0301 is an error" (i.Code.severity = Code.Error)
   | None -> Alcotest.fail "V0301 not registered");
  Helpers.check_true "unknown code" (not (Code.is_known "V9999"))

let test_emitted_codes_registered () =
  (* Every code the snippets below provoke must be in the registry. *)
  List.iter
    (fun src ->
      List.iter
        (fun c -> Helpers.check_true (c ^ " registered") (Code.is_known c))
        (codes src))
    [ "Part name=t\n";
      in_section "Specification" "IO width=";
      in_section "Specification" "Timing trc=15V";
      in_section "Voltagez" "Supply vdd=1.5V";
      in_section "Pattern" "Pattern loop= act fnord" ]

(* ----- syntax (V00xx) ---------------------------------------------- *)

let test_syntax_codes () =
  has "statement before section" "V0001" "Part name=t\n";
  has "missing value" "V0003" (in_section "Specification" "IO width=");
  has "assignment as keyword" "V0004" (in_section "Device" "=foo bar");
  (* The parser error carries the code and a column span. *)
  (match Parser.parse (in_section "Specification" "IO width=") with
   | Error e ->
     Alcotest.(check string) "parser code" "V0003" e.Parser.code;
     Helpers.check_true "parser span has columns"
       (e.Parser.span.Span.col_start > 1)
   | Ok _ -> Alcotest.fail "expected a parse error")

let test_embedded_comment () =
  let src = in_section "Specification" "Density mbits=1024#half the die" in
  (match find_code "V0005" src with
   | Some d ->
     Helpers.check_true "V0005 is a warning" (not (D.is_error d));
     Alcotest.(check int) "marker column" 19 d.D.span.Span.col_start
   | None -> Alcotest.fail "embedded # not reported");
  (* The historical behaviour is preserved: the value still parses. *)
  (match Vdram_dsl.Elaborate.load_string src with
   | Ok { Vdram_dsl.Elaborate.config; _ } ->
     Helpers.close "truncated density survives"
       (1024.0 *. (2.0 ** 20.0))
       config.Config.spec.Spec.density_bits
   | Error _ -> Alcotest.fail "description should still elaborate");
  (* A slash inside a unit is not a comment. *)
  Helpers.check_true "fF/um is not a comment"
    (not
       (List.mem "V0005"
          (codes (in_section "Technology" "Set cwiresignal=0.36fF/um"))))

(* ----- dimensional analysis (V01xx/V02xx) -------------------------- *)

let test_dimensions_report_all () =
  (* Elaboration stops at the first bad literal; the lint pass keeps
     going and reports both. *)
  let src = in_section "Specification" "Timing trc=15V trcd=2 trp=15ns" in
  let v0101 = List.filter (fun c -> c = "V0101") (codes src) in
  Alcotest.(check int) "both wrong dimensions reported" 2
    (List.length v0101);
  (* ... and elaboration-dependent passes are skipped, not crashed. *)
  Helpers.check_true "no physical findings on a broken file"
    (not (List.exists (fun c -> c >= "V0300") (codes src)))

let test_literal_codes () =
  has "malformed number" "V0102" (in_section "Specification" "Density mbits=abc");
  has "unknown unit" "V0103" (in_section "Voltages" "Supply vdd=1.5Q");
  has "non-finite literal" "V0104" (in_section "Voltages" "Supply vdd=1e999V");
  (match find_code "V0103" (in_section "Voltages" "Supply vdd=1.5Q") with
   | Some d ->
     Helpers.check_true "V0103 span points at the argument"
       (d.D.span.Span.col_start > 1)
   | None -> Alcotest.fail "V0103 missing")

let test_hygiene_codes () =
  has "unknown argument" "V0105" (in_section "Specification" "IO widht=16");
  has "unknown section" "V0106" (in_section "Voltagez" "Supply vdd=1.5V");
  has "unknown keyword" "V0107" (in_section "Voltages" "Suply vdd=1.5V");
  has "unknown technology parameter" "V0201"
    (in_section "Technology" "Set cbitlinez=82fF");
  has "unknown pattern command" "V0206"
    (in_section "Pattern" "Pattern loop= act fnord")

(* ----- physical consistency (V03xx) -------------------------------- *)

let test_vint_above_vdd () =
  let src =
    in_section "Voltages" "Supply vdd=1.2V vint=1.8V vbl=1.0V vpp=2.8V"
  in
  match find_code "V0303" src with
  | Some d ->
    Helpers.check_true "V0303 is an error" (D.is_error d);
    Helpers.check_true "V0303 is placed on the Supply statement"
      (d.D.span.Span.line > 0 && d.D.span.Span.col_start > 1)
  | None -> Alcotest.fail "vint above vdd not flagged"

let test_density_zero_guard () =
  (* A zero density must be a V0305 error, not a NaN that silently
     disables the coverage check. *)
  let cfg = Lazy.force Helpers.ddr3_1g in
  let broken =
    Config.with_spec cfg { cfg.Config.spec with Spec.density_bits = 0.0 }
  in
  let findings = Validate.check broken in
  Helpers.check_true "V0305 emitted"
    (List.exists (fun (d : D.t) -> d.D.code = "V0305") findings);
  Helpers.check_true "density error is fatal" (not (Validate.is_clean broken));
  Helpers.check_true "no NaN leaks into the report"
    (List.for_all
       (fun (d : D.t) -> not (contains d.D.message "nan"))
       findings)

(* ----- finiteness (V04xx) ------------------------------------------ *)

let test_finiteness_pass () =
  let cfg = Lazy.force Helpers.ddr3_1g in
  Alcotest.(check int) "clean config has no finiteness findings" 0
    (List.length (Passes.finiteness cfg));
  let poisoned =
    Config.with_tech cfg { cfg.Config.tech with Params.c_bitline = Float.nan }
  in
  let ds = Passes.finiteness poisoned in
  Helpers.check_true "NaN bitline poisons an operation energy (V0401)"
    (List.exists (fun (d : D.t) -> d.D.code = "V0401") ds);
  Helpers.check_true "finiteness findings are errors"
    (List.for_all D.is_error ds)

(* ----- timing (V05xx) ---------------------------------------------- *)

let test_timing_codes () =
  has "tRCD+tRP over tRC" "V0501"
    (in_section "Specification" "Timing trc=30ns trcd=20ns trp=20ns");
  has "non-positive timing" "V0502"
    (in_section "Specification" "Timing trc=55ns trcd=0ns trp=15ns");
  (match
     find_code "V0501"
       (in_section "Specification" "Timing trc=30ns trcd=20ns trp=20ns")
   with
   | Some d ->
     Helpers.check_true "V0501 points at trc"
       (d.D.span.Span.col_start > 1)
   | None -> Alcotest.fail "V0501 missing")

(* ----- pattern reachability (V06xx) -------------------------------- *)

let test_pattern_codes () =
  has "column without activate" "V0601"
    (in_section "Pattern" "Pattern loop= rd nop nop nop nop nop nop nop");
  has "data bus oversubscribed" "V0603"
    (in_section "Pattern" "Pattern loop= rd wrt");
  (* The old aggregate V0602 bound is superseded by the bank-aware
     replay: back-to-back activates now surface as tRRD spacing. *)
  has "activates closer than tRRD" "V0802"
    (in_section "Pattern" "Pattern loop= act pre")

(* ----- driver ------------------------------------------------------ *)

let test_minimal_clean () =
  Alcotest.(check int) "roadmap-default description lints clean" 0
    (List.length (run base))

let test_suppress () =
  let src = in_section "Specification" "IO widht=16" in
  let r = Lint.run src in
  Helpers.check_true "warning present" (Lint.warnings r = 1);
  let r' = Lint.suppress ~codes:[ "V0105" ] r in
  Alcotest.(check int) "warning suppressed" 0 (Lint.warnings r');
  (* Errors are never suppressible. *)
  let bad = in_section "Specification" "Density mbits=abc" in
  let rb = Lint.suppress ~codes:[ "V0102" ] (Lint.run bad) in
  Helpers.check_true "error survives --allow" (Lint.errors rb > 0)

let fixture = "fixtures/bad_vpp_headroom.dram"

let test_fixture_golden_text () =
  if Sys.file_exists fixture then begin
    let r = Lint.run_file fixture in
    Alcotest.(check int) "one error" 1 (Lint.errors r);
    let rendered = Format.asprintf "%a" Lint.pp_text r in
    let expected =
      String.concat "\n"
        [ "fixtures/bad_vpp_headroom.dram:12:36: error[V0301]: Vpp \
           (1.30 V) leaves no write-back headroom over Vbl (1.20 V)";
          "  12 | Supply vdd=1.5V vint=1.4V vbl=1.2V vpp=1.3V";
          "     |                                    ^^^^^^^^";
          "     = help: raise vpp or lower vbl so that vpp > vbl + 0.5 V";
          ""; "" ]
    in
    Alcotest.(check string) "golden text rendering" expected rendered
  end

let test_fixture_json () =
  if Sys.file_exists fixture then begin
    let r = Lint.run_file fixture in
    let json = Vdram_json.Json.to_string (Lint.to_json r) in
    List.iter
      (fun part ->
        Helpers.check_true (part ^ " in JSON") (contains json part))
      [ "\"errors\":1"; "\"warnings\":0"; "\"code\":\"V0301\"";
        "\"severity\":\"error\""; "\"line\":12"; "\"col\":36";
        "\"end_col\":44"; "\"file\":\"fixtures/bad_vpp_headroom.dram\"" ]
  end

let test_missing_file () =
  let r = Lint.run_file "fixtures/no_such_file.dram" in
  match r.Lint.diagnostics with
  | [ d ] ->
    Alcotest.(check string) "I/O failures are V0006" "V0006" d.D.code;
    Helpers.check_true "counts as an error" (Lint.errors r = 1)
  | _ -> Alcotest.fail "expected exactly one diagnostic"

let examples =
  [ "ddr3_1gb.dram"; "ddr5_16g.dram"; "inefficient.dram";
    "lpddr_mobile.dram"; "sdr_128m.dram" ]

let test_examples_lint_clean () =
  List.iter
    (fun name ->
      let path = Filename.concat "../examples" name in
      if Sys.file_exists path then begin
        let r = Lint.run_file path in
        if r.Lint.diagnostics <> [] then
          Alcotest.failf "%s not lint-clean:\n%s" name
            (Format.asprintf "%a" Lint.pp_text r)
      end)
    examples

let suite =
  [
    Alcotest.test_case "code registry" `Quick test_registry;
    Alcotest.test_case "emitted codes registered" `Quick
      test_emitted_codes_registered;
    Alcotest.test_case "syntax codes" `Quick test_syntax_codes;
    Alcotest.test_case "embedded comment marker" `Quick test_embedded_comment;
    Alcotest.test_case "dimensional pass reports all" `Quick
      test_dimensions_report_all;
    Alcotest.test_case "literal codes" `Quick test_literal_codes;
    Alcotest.test_case "hygiene codes" `Quick test_hygiene_codes;
    Alcotest.test_case "vint above vdd spanned" `Quick test_vint_above_vdd;
    Alcotest.test_case "density zero guard" `Quick test_density_zero_guard;
    Alcotest.test_case "finiteness pass" `Quick test_finiteness_pass;
    Alcotest.test_case "timing codes" `Quick test_timing_codes;
    Alcotest.test_case "pattern codes" `Quick test_pattern_codes;
    Alcotest.test_case "minimal description clean" `Quick test_minimal_clean;
    Alcotest.test_case "suppression" `Quick test_suppress;
    Alcotest.test_case "fixture golden text" `Quick test_fixture_golden_text;
    Alcotest.test_case "fixture JSON" `Quick test_fixture_json;
    Alcotest.test_case "missing file" `Quick test_missing_file;
    Alcotest.test_case "examples lint clean" `Quick test_examples_lint_clean;
  ]
