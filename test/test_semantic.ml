(* Semantic lint v2: error-accumulating elaboration, structured
   fix-its (--fix), floorplan coordinate checks (V07xx), bank-aware
   pattern legality (V08xx, shared with the simulator's scheduler),
   the SARIF renderer and the exit-code contract. *)

module Code = Vdram_diagnostics.Code
module Span = Vdram_diagnostics.Span
module D = Vdram_diagnostics.Diagnostic
module Fix = Vdram_diagnostics.Fix
module Suggest = Vdram_diagnostics.Suggest
module Parser = Vdram_dsl.Parser
module Printer = Vdram_dsl.Printer
module Ast = Vdram_dsl.Ast
module Elaborate = Vdram_dsl.Elaborate
module Lint = Vdram_lint.Lint
module Timing = Vdram_sim.Timing
module Legality = Vdram_sim.Legality
module Pattern = Vdram_core.Pattern

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay
    && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let codes_of diags = List.map (fun (d : D.t) -> d.D.code) diags

(* ----- registry self-check ----------------------------------------- *)

let test_registry_self_check () =
  Alcotest.(check (list string))
    "registry passes its startup self-check" [] (Code.self_check ());
  Helpers.check_true "V07xx band reserved"
    (List.mem_assoc "V07" Code.bands);
  Helpers.check_true "V08xx band reserved"
    (List.mem_assoc "V08" Code.bands);
  Helpers.check_true "V09xx band reserved"
    (List.mem_assoc "V09" Code.bands);
  List.iter
    (fun c -> Helpers.check_true (c ^ " registered") (Code.is_known c))
    [ "V0901"; "V0902"; "V0903" ]

(* ----- error-accumulating elaboration ------------------------------ *)

let accumulating_source =
  String.concat "\n"
    [ "Device"; "Part name=acc node=banana"; "";
      "Specification"; "IO width=16 datarate=1.6Gbps";
      "Density mbits=zero"; "";
      "Technology"; "Set cbitlinez=75fF"; "";
      "FloorplanSignaling"; "WriteDta length=450um toggle=25%"; "" ]

let test_accumulates_errors () =
  (* One run must surface at least three distinct elaboration errors
     (the old fail-fast driver stopped at the first). *)
  let r = Lint.run accumulating_source in
  let errs =
    List.filter D.is_error r.Lint.diagnostics |> codes_of
    |> List.sort_uniq compare
  in
  Helpers.check_true
    (Printf.sprintf "at least 3 distinct error codes in one run (got %s)"
       (String.concat "," errs))
    (List.length errs >= 3);
  (* Every error points somewhere in the source. *)
  List.iter
    (fun (d : D.t) ->
      if D.is_error d then
        Helpers.check_true (d.D.code ^ " is spanned")
          (not (Span.is_none d.D.span)))
    r.Lint.diagnostics

let test_elaborate_tuple_contract () =
  match Parser.parse accumulating_source with
  | Error _ -> Alcotest.fail "source must parse"
  | Ok ast ->
    let cfg, diags = Elaborate.elaborate ast in
    Helpers.check_true "diagnostics accumulated"
      (List.length (List.filter D.is_error diags) >= 2);
    (* to_result gives the old fail-fast view. *)
    (match Elaborate.to_result (cfg, diags) with
     | Ok _ -> Alcotest.fail "errors must surface through to_result"
     | Error e ->
       Helpers.check_true "first error is coded" (e.Parser.code <> ""));
    (* A clean description elaborates with no diagnostics. *)
    (match Parser.parse "Device\nPart name=t node=65nm\n" with
     | Error _ -> Alcotest.fail "clean source must parse"
     | Ok ast ->
       let cfg, diags = Elaborate.elaborate ast in
       Helpers.check_true "clean description has a config" (cfg <> None);
       Alcotest.(check (list string)) "clean description has no diags" []
         (codes_of diags))

(* ----- structured fix-its ------------------------------------------ *)

let span line a b = Span.of_cols ~start:a ~stop:b line

let test_fix_apply () =
  let source = "IO widht=16\nSet x=1" in
  (* Replacement. *)
  let fixed, n = Fix.apply ~source [ Fix.v ~span:(span 1 4 9) "width" ] in
  Alcotest.(check string) "replace" "IO width=16\nSet x=1" fixed;
  Alcotest.(check int) "one applied" 1 n;
  (* Zero-width span inserts. *)
  let fixed, n = Fix.apply ~source [ Fix.v ~span:(span 1 4 4) "re" ] in
  Alcotest.(check string) "insert" "IO rewidht=16\nSet x=1" fixed;
  Alcotest.(check int) "insert applied" 1 n;
  (* Overlapping fixes: first in source order wins. *)
  let fixed, n =
    Fix.apply ~source
      [ Fix.v ~span:(span 1 4 9) "width"; Fix.v ~span:(span 1 4 9) "depth" ]
  in
  Alcotest.(check string) "first wins" "IO width=16\nSet x=1" fixed;
  Alcotest.(check int) "conflict dropped" 1 n;
  (* Disjoint fixes on one line both apply. *)
  let fixed, n =
    Fix.apply ~source
      [ Fix.v ~span:(span 1 1 3) "DQ"; Fix.v ~span:(span 1 4 9) "width" ]
  in
  Alcotest.(check string) "both apply" "DQ width=16\nSet x=1" fixed;
  Alcotest.(check int) "two applied" 2 n;
  (* Spanless or out-of-range fixes are ignored. *)
  let _, n =
    Fix.apply ~source
      [ Fix.v ~span:Span.none "x"; Fix.v ~span:(span 9 1 2) "y" ]
  in
  Alcotest.(check int) "nothing applied" 0 n

let test_fix_edges () =
  let source = "act nop\npre nop\nrd wrt" in
  (* A multi-line region swallows the intervening line break. *)
  let f = Fix.v ~span:(span 1 5 1) ~line_end:2 "rd " in
  let fixed, n = Fix.apply ~source [ f ] in
  Alcotest.(check string) "multi-line replace" "act rd pre nop\nrd wrt" fixed;
  Alcotest.(check int) "one applied" 1 n;
  (* Adjacent but not overlapping: one fix ends exactly where the next
     begins (the end column is exclusive), across a line break.  Both
     must apply — adjacency is not overlap. *)
  let first = Fix.v ~span:(span 1 5 1) ~line_end:2 "" in
  let second = Fix.v ~span:(span 2 1 4) "act" in
  let fixed, n = Fix.apply ~source [ first; second ] in
  Alcotest.(check string) "adjacent fixes both apply" "act act nop\nrd wrt"
    fixed;
  Alcotest.(check int) "two applied" 2 n;
  (* Zero-width insertion at the very end of a line: col_start one
     past the last character is still in range. *)
  let at_eol = Fix.v ~span:(span 2 8 8) " ref" in
  let fixed, n = Fix.apply ~source [ at_eol ] in
  Alcotest.(check string) "insert at line end" "act nop\npre nop ref\nrd wrt"
    fixed;
  Alcotest.(check int) "eol insert applied" 1 n;
  (* One past the end of the line is the insertion point after its
     last character; two past is out of range and must be dropped, not
     misapplied against the next line. *)
  let past = Fix.v ~span:(span 2 9 9) "x" in
  let fixed, n = Fix.apply ~source [ past ] in
  Alcotest.(check string) "out-of-range insert untouched" source fixed;
  Alcotest.(check int) "out-of-range insert dropped" 0 n

let test_fix_crlf () =
  (* CRLF sources: the \r is the last character of each split line, so
     column arithmetic still lands inside the intended line. *)
  let source = "act nop\r\npre nop\r\nrd wrt" in
  let f = Fix.v ~span:(span 2 1 4) "act" in
  let fixed, n = Fix.apply ~source [ f ] in
  Alcotest.(check string) "edit inside a CRLF line"
    "act nop\r\nact nop\r\nrd wrt" fixed;
  Alcotest.(check int) "one applied" 1 n;
  (* An insertion at the LF-relative end of a CRLF line lands before
     the \r, keeping the line ending intact. *)
  let at_eol = Fix.v ~span:(span 1 8 8) " ref" in
  let fixed, n = Fix.apply ~source [ at_eol ] in
  Alcotest.(check string) "insert keeps the CR"
    "act nop ref\r\npre nop\r\nrd wrt" fixed;
  Alcotest.(check int) "eol insert applied" 1 n

let test_suggest () =
  Alcotest.(check int) "transposition distance" 2
    (Suggest.distance "widht" "width");
  Alcotest.(check int) "identity distance" 0
    (Suggest.distance "width" "width");
  Alcotest.(check (option string)) "near miss" (Some "width")
    (Suggest.nearest ~candidates:[ "width"; "datarate" ] "widht");
  Alcotest.(check (option string)) "case-insensitive" (Some "voltages")
    (Suggest.nearest ~candidates:[ "voltages" ] "Voltagez");
  Alcotest.(check (option string)) "too far" None
    (Suggest.nearest ~candidates:[ "width" ] "frequency")

let fixable = "fixtures/fixable.dram"

let test_fix_roundtrip () =
  (* The acceptance loop behind `vdram lint --fix`: every finding in
     the fixture carries a fix; applying them yields a description
     that re-lints clean. *)
  if Sys.file_exists fixable then begin
    let r = Lint.run_file fixable in
    Helpers.check_true "fixture has findings" (r.Lint.diagnostics <> []);
    List.iter
      (fun (d : D.t) ->
        Helpers.check_true (d.D.code ^ " carries a fix") (d.D.fixes <> []))
      r.Lint.diagnostics;
    let fixed, applied = Lint.apply_fixes r in
    Helpers.check_true "fixes applied" (applied >= 3);
    let r' = Lint.run ~file:fixable fixed in
    if r'.Lint.diagnostics <> [] then
      Alcotest.failf "fixed source not clean:\n%s"
        (Format.asprintf "%a" Lint.pp_text r')
  end

let wrong_dim_source =
  String.concat "\n"
    [ "Device"; "Part name=dims node=55nm"; "";
      "Specification"; "IO width=16 datarate=1.6GHz";
      "Timing trc=50nm trcd=16.5ns trp=15"; "" ]

let test_v0101_fixit () =
  (* Wrong-dimension literals keep their number and SI prefix and swap
     the base unit for the expected one; a bare number offers no
     prefix, so no fix is proposed. *)
  let r = Lint.run wrong_dim_source in
  let v0101 =
    List.filter (fun (d : D.t) -> d.D.code = "V0101") r.Lint.diagnostics
  in
  Alcotest.(check int) "three wrong-dimension findings" 3
    (List.length v0101);
  let replacements =
    List.concat_map
      (fun (d : D.t) ->
        List.map (fun (f : Fix.t) -> f.Fix.replacement) d.D.fixes)
      v0101
  in
  Alcotest.(check (list string)) "unit swapped, prefix and number kept"
    [ "datarate=1.6Gbps"; "trc=50ns" ]
    (List.sort compare replacements);
  let fixed, applied = Lint.apply_fixes r in
  Alcotest.(check int) "both fixes apply" 2 applied;
  Helpers.check_true "fixed literals present"
    (contains fixed "trc=50ns" && contains fixed "datarate=1.6Gbps");
  (* The bare-scalar finding (trp=15) remains after fixing. *)
  let r' = Lint.run fixed in
  Alcotest.(check (list string)) "only the prefix-less finding remains"
    [ "V0101" ]
    (codes_of (List.filter D.is_error r'.Lint.diagnostics))

let test_preview_fixes () =
  (* --fix --dry-run: a unified diff of what would change, with the
     file left untouched (the report is built from a string here, so
     there is nothing to touch — the diff itself is the contract). *)
  let r = Lint.run wrong_dim_source in
  match Lint.preview_fixes r with
  | None -> Alcotest.fail "fixable report must produce a preview"
  | Some (diff, applied) ->
    Alcotest.(check int) "preview covers both fixes" 2 applied;
    Helpers.check_true "unified headers" (contains diff "--- a/<stdin>");
    Helpers.check_true "hunk header" (contains diff "@@ -");
    Helpers.check_true "old line removed" (contains diff "-Timing trc=50nm");
    Helpers.check_true "new line added" (contains diff "+Timing trc=50ns");
    (* Context lines ride along unchanged. *)
    Helpers.check_true "context line" (contains diff " Specification");
    (* A clean report previews nothing. *)
    (match Lint.preview_fixes (Lint.run "Device\nPart name=t node=65nm\n")
     with
     | None -> ()
     | Some _ -> Alcotest.fail "clean report must preview no fixes")

let mixed_fix_source =
  String.concat "\n"
    [ "Device"; "Part name=mixed node=55nm"; "";
      "Specification"; "IO widht=16 datarate=1.6GHz";
      "Timing trc=50nm trcd=16.5ns"; "" ]

let test_fix_only () =
  (* `vdram lint --fix-only CODE`: a source mixing wrong-dimension
     literals (V0101) with an argument typo (V0105) is repaired one
     code at a time; the other code's edits are left untouched. *)
  let r = Lint.run mixed_fix_source in
  let codes = codes_of r.Lint.diagnostics in
  Helpers.check_true "source mixes V0101 and V0105"
    (List.mem "V0101" codes && List.mem "V0105" codes);
  Alcotest.(check int) "only=V0101 narrows the harvest" 2
    (List.length (Lint.fixes ~only:"V0101" r));
  let fixed, applied = Lint.apply_fixes ~only:"V0101" r in
  Alcotest.(check int) "only the dimension fixes apply" 2 applied;
  Helpers.check_true "dimension literals repaired"
    (contains fixed "trc=50ns" && contains fixed "datarate=1.6Gbps");
  Helpers.check_true "the V0105 typo is left alone"
    (contains fixed "widht=16");
  let fixed', applied' = Lint.apply_fixes ~only:"V0105" r in
  Alcotest.(check int) "exactly the typo fix applies" 1 applied';
  Helpers.check_true "typo repaired, dimensions untouched"
    (contains fixed' "width=16" && contains fixed' "trc=50nm");
  match Lint.preview_fixes ~only:"V0105" r with
  | None -> Alcotest.fail "filtered preview expected"
  | Some (diff, n) ->
    Alcotest.(check int) "preview counts only the filtered fix" 1 n;
    Helpers.check_true "diff rewrites the typo line"
      (contains diff "-IO widht=16" && contains diff "+IO width=16");
    Helpers.check_true "diff leaves the timing line alone"
      (not (contains diff "+Timing"))

let test_udiff_render () =
  let render a b =
    Vdram_lint.Udiff.render ~path:"f" ~before:a ~after:b ()
  in
  Alcotest.(check string) "equal texts diff empty" "" (render "a\nb" "a\nb");
  let d = render "a\nb\nc" "a\nB\nc" in
  Helpers.check_true "replacement shows - then +"
    (contains d "-b\n+B\n");
  Helpers.check_true "hunk coordinates" (contains d "@@ -1,3 +1,3 @@")

(* ----- print/parse round trip -------------------------------------- *)

(* The AST with spans erased: what --fix relies on Printer.print to
   preserve. *)
let strip ast =
  List.map
    (fun (s : Ast.section) ->
      ( s.Ast.section_name,
        List.map
          (fun (st : Ast.stmt) -> (st.Ast.keyword, st.Ast.args, st.Ast.positional))
          s.Ast.stmts ))
    ast

let test_print_parse_roundtrip () =
  let files =
    [ "../examples/ddr3_1gb.dram"; "../examples/ddr5_16g.dram";
      "../examples/lpddr_mobile.dram"; "../examples/sdr_128m.dram";
      "fixtures/bad_vpp_headroom.dram"; "fixtures/fixable.dram" ]
  in
  List.iter
    (fun path ->
      if Sys.file_exists path then begin
        let source = In_channel.with_open_text path In_channel.input_all in
        match Parser.parse source with
        | Error e ->
          Alcotest.failf "%s: %s" path
            (Format.asprintf "%a" Parser.pp_error e)
        | Ok ast ->
          (match Parser.parse (Printer.print ast) with
           | Error e ->
             Alcotest.failf "%s: reprint does not parse: %s" path
               (Format.asprintf "%a" Parser.pp_error e)
           | Ok ast' ->
             if strip ast <> strip ast' then
               Alcotest.failf "%s: print/parse round trip changed the AST"
                 path)
      end)
    files

(* ----- floorplan coordinate checks (V07xx) ------------------------- *)

let fp_base signaling =
  String.concat "\n"
    [ "Device"; "Part name=fp node=170nm"; "";
      "FloorplanPhysical";
      "CellArray BitsPerBL=256 BitsPerLWL=256 BLtype=folded Page=8192";
      "Horizontal blocks = A0 R0 A1";
      "Vertical blocks = C0 AR0 P0 AR1 C1";
      "SizeHorizontal R0=400um";
      "SizeVertical C0=380um P0=1000um C1=380um"; "";
      "FloorplanSignaling"; signaling; "" ]

let test_floorplan_codes () =
  (* start= outside the declared 3 x 5 grid: error, caught during
     elaboration. *)
  let r = Lint.run (fp_base "RowAddress wires=12 start=0_9 end=1_2") in
  Helpers.check_true "V0701 out-of-grid"
    (List.mem "V0701" (codes_of r.Lint.diagnostics));
  Helpers.check_true "V0701 is an error" (Lint.errors r > 0);
  (match
     List.find_opt
       (fun (d : D.t) -> d.D.code = "V0701")
       r.Lint.diagnostics
   with
   | Some d ->
     Helpers.check_true "V0701 points at the coordinate"
       (d.D.span.Span.line > 0 && d.D.span.Span.col_start > 1)
   | None -> Alcotest.fail "V0701 missing");
  (* start = end: zero-length route, warning. *)
  let r = Lint.run (fp_base "Command wires=4 start=1_2 end=1_2") in
  Helpers.check_true "V0702 zero-length route"
    (List.mem "V0702" (codes_of r.Lint.diagnostics));
  Alcotest.(check int) "V0702 is a warning" 0 (Lint.errors r);
  (* fraction outside (0, 1]. *)
  let r =
    Lint.run (fp_base "ReadData wires=16 inside=1_2 fraction=150% dir=h")
  in
  Helpers.check_true "V0703 fraction out of range"
    (List.mem "V0703" (codes_of r.Lint.diagnostics));
  (* All in-grid, distinct, sane fraction: silent. *)
  let r =
    Lint.run (fp_base "Command wires=4 start=0_2 end=2_2 toggle=25%")
  in
  Helpers.check_true "legal signaling stays clean"
    (not
       (List.exists
          (fun c -> List.mem c [ "V0701"; "V0702"; "V0703" ])
          (codes_of r.Lint.diagnostics)))

(* ----- bank-aware pattern legality (V08xx) ------------------------- *)

let ddr3ish pattern_loop =
  String.concat "\n"
    [ "Device"; "Part name=burst node=65nm"; "";
      "Specification"; "IO width=8 datarate=1.6Gbps";
      "Banks number=8"; "Timing trc=37.5ns trcd=13.75ns trp=13.75ns"; "";
      "Pattern"; "Pattern loop= " ^ pattern_loop; "" ]

let reject : Legality.violation Alcotest.testable =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Legality.message v))
    ( = )

let test_bank_legality_vs_aggregate () =
  (* Two back-to-back activates in a 16-cycle loop: the old aggregate
     bounds (acts * tRC <= cycles * banks, acts * tFAW <= cycles * 4)
     accept it, but the scheduler rejects the placement — tRRD keeps
     activates apart regardless of the average rate. *)
  let loop =
    "act act nop nop nop nop nop nop nop nop nop nop nop nop nop nop"
  in
  let r = Lint.run (ddr3ish loop) in
  let cs = codes_of r.Lint.diagnostics in
  Helpers.check_true "no aggregate V0602 (superseded)"
    (not (List.mem "V0602" cs));
  Helpers.check_true "V0802 tRRD spacing flagged" (List.mem "V0802" cs);
  Alcotest.(check int) "legality findings are warnings" 0 (Lint.errors r);
  (* The aggregate bounds really do accept this pattern. *)
  (match Elaborate.load_string (ddr3ish loop) with
   | Error _ -> Alcotest.fail "description must elaborate"
   | Ok { Elaborate.config; pattern } ->
     let p = Option.get pattern in
     let t = Timing.of_config config in
     let banks = config.Vdram_core.Config.spec.Vdram_core.Spec.banks in
     let acts = Pattern.count p Pattern.Act in
     let cycles = Pattern.cycles p in
     Helpers.check_true "old tRC aggregate bound accepts the pattern"
       (acts * t.Timing.trc <= cycles * banks);
     Helpers.check_true "old tFAW aggregate bound accepts the pattern"
       (acts * t.Timing.tfaw <= cycles * 4);
     (* Shared component: the simulator's own legality checker rejects
        the same command stream, so lint and sim cannot disagree. *)
     let rank = Legality.create t ~banks in
     Alcotest.(check (list reject)) "first activate legal" []
       (Legality.activate rank ~bank:0 ~at:0 ~row:0);
     let vs = Legality.activate rank ~bank:1 ~at:1 ~row:0 in
     Helpers.check_true "scheduler rejects the second activate"
       (List.exists
          (fun v -> v.Legality.kind = Legality.Act_spacing)
          vs);
     Helpers.check_true "enforce raises for the simulator"
       (try
          Legality.enforce vs;
          false
        with Legality.Timing_violation _ -> true))

let test_trc_reuse_flagged () =
  (* Two banks, two activates per 32-cycle loop: the round-robin
     rotation wraps back to bank 0 only 32 cycles after its previous
     activate — inside tRC (40 clocks at 800 MHz) even though the
     bank precharged legally: V0801. *)
  let nops n = String.concat " " (List.init n (fun _ -> "nop")) in
  let source =
    String.concat "\n"
      [ "Device"; "Part name=twobank node=65nm"; "";
        "Specification"; "IO width=8 datarate=1.6Gbps";
        "Banks number=2"; "Control frequency=800MHz";
        "Timing trc=50ns trcd=15ns trp=15ns"; "";
        "Pattern";
        Printf.sprintf "Pattern loop= act %s act %s pre nop pre nop"
          (nops 7) (nops 19); "" ]
  in
  let r = Lint.run source in
  Helpers.check_true
    (Printf.sprintf "V0801 tRC reuse flagged (got %s)"
       (String.concat "," (codes_of r.Lint.diagnostics)))
    (List.mem "V0801" (codes_of r.Lint.diagnostics))

let test_four_activate_window () =
  (* Direct shared-component check of the tFAW window: five activates
     legal on tRRD spacing but the fifth inside tFAW. *)
  let t =
    {
      Timing.tck = 1e-9; trcd = 4; trp = 4; tras = 10; trc = 14; trrd = 2;
      tfaw = 20; tccd = 2; tccd_l = 2; bank_groups = 1; cl = 4; twl = 3;
      twr = 4; trtp = 3; trefi = 7800; trfc = 128; txp = 3;
    }
  in
  let rank = Legality.create t ~banks:8 in
  List.iteri
    (fun i at ->
      Alcotest.(check int)
        (Printf.sprintf "activate %d legal" i)
        0
        (List.length (Legality.activate rank ~bank:i ~at ~row:0)))
    [ 0; 2; 4; 6 ];
  let vs = Legality.activate rank ~bank:4 ~at:8 ~row:0 in
  Helpers.check_true "fifth activate trips tFAW"
    (List.exists
       (fun v -> v.Legality.kind = Legality.Four_activate)
       vs);
  (* Past the window it becomes legal (state untouched by the
     rejection). *)
  Alcotest.(check int) "fifth activate legal after the window" 0
    (List.length (Legality.activate rank ~bank:4 ~at:20 ~row:0))

let test_examples_bank_legal () =
  (* The shipped example patterns are schedulable: the V08xx replay
     stays silent on all of them. *)
  List.iter
    (fun name ->
      let path = Filename.concat "../examples" name in
      if Sys.file_exists path then begin
        let r = Lint.run_file path in
        List.iter
          (fun (d : D.t) ->
            if List.mem d.D.code [ "V0801"; "V0802"; "V0803" ] then
              Alcotest.failf "%s: unexpected %s: %s" name d.D.code
                d.D.message)
          r.Lint.diagnostics
      end)
    [ "ddr3_1gb.dram"; "ddr5_16g.dram"; "lpddr_mobile.dram";
      "sdr_128m.dram" ]

(* ----- SARIF ------------------------------------------------------- *)

module Json = Vdram_json.Json

let parse s =
  match Json.parse s with Ok j -> j | Error e -> Alcotest.failf "bad JSON: %s" e

(* [at j path] follows object members down [path], failing the test
   on a missing one; [get acc j path] then applies the [Json] accessor
   [acc] and fails on a type mismatch. *)
let at j path =
  match
    List.fold_left (fun j k -> Option.bind j (Json.mem k)) (Some j) path
  with
  | Some v -> v
  | None -> Alcotest.failf "no member %s" (String.concat "." path)

let get acc j path =
  match acc (at j path) with
  | Some v -> v
  | None ->
    Alcotest.failf "member %s has the wrong type" (String.concat "." path)

let test_sarif_structure () =
  (* The SARIF log must be well-formed JSON and satisfy the 2.1.0
     schema's required properties for the pieces we emit: version,
     runs[].tool.driver.name, results[].message.text, physical
     locations with 1-based regions, and rule metadata every result
     indexes into. *)
  let r1 = Lint.run ~file:"a.dram" accumulating_source in
  let r2 =
    Lint.run ~file:"b.dram" (fp_base "Command wires=4 start=1_2 end=1_2")
  in
  let j = parse (Lint.to_sarif [ r1; r2 ]) in
  Alcotest.(check string) "version" "2.1.0" (get Json.str j [ "version" ]);
  Helpers.check_true "schema URI names 2.1.0"
    (contains (get Json.str j [ "$schema" ]) "sarif-schema-2.1.0");
  (match get Json.list_ j [ "runs" ] with
   | [ run ] ->
     Alcotest.(check string) "tool name" "vdram lint"
       (get Json.str run [ "tool"; "driver"; "name" ]);
     let rules = get Json.list_ run [ "tool"; "driver"; "rules" ] in
     let rule_ids = List.map (fun r -> get Json.str r [ "id" ]) rules in
     Helpers.check_true "rules declared" (rules <> []);
     let results = get Json.list_ run [ "results" ] in
     let expected =
       List.length r1.Lint.diagnostics + List.length r2.Lint.diagnostics
     in
     Alcotest.(check int) "one result per diagnostic" expected
       (List.length results);
     List.iter
       (fun res ->
         let rule_id = get Json.str res [ "ruleId" ] in
         Helpers.check_true (rule_id ^ " indexed in rules")
           (List.mem rule_id rule_ids);
         Alcotest.(check string) "ruleIndex points at its rule" rule_id
           (List.nth rule_ids (get Json.int_ res [ "ruleIndex" ]));
         Helpers.check_true "level is a schema value"
           (List.mem
              (get Json.str res [ "level" ])
              [ "error"; "warning"; "note" ]);
         Helpers.check_true "message text present"
           (get Json.str res [ "message"; "text" ] <> "");
         match get Json.list_ res [ "locations" ] with
         | [ loc ] ->
           Helpers.check_true "uri is one of the inputs"
             (List.mem
                (get Json.str loc
                   [ "physicalLocation"; "artifactLocation"; "uri" ])
                [ "a.dram"; "b.dram" ]);
           let region = at loc [ "physicalLocation"; "region" ] in
           Helpers.check_true "startLine is 1-based"
             (get Json.num region [ "startLine" ] >= 1.0);
           Helpers.check_true "columns ordered"
             (get Json.num region [ "endColumn" ]
              >= get Json.num region [ "startColumn" ])
         | _ -> Alcotest.fail "expected one location per result")
       results;
     (* Fix-carrying diagnostics surface as SARIF fixes. *)
     Helpers.check_true "at least one result carries fixes"
       (List.exists (fun res -> Json.mem "fixes" res <> None) results)
   | _ -> Alcotest.fail "expected exactly one run")

let test_control_byte_file_name () =
  (* Every emitter spells a control byte the one way the JSON module
     does: 0x08, 0x0C and 0x0D in a file name print as \b, \f and \r,
     and every "file" and "uri" member parses back to the name. *)
  let file = "ctl\b\012\rname.dram" in
  let r =
    Lint.run ~file (In_channel.with_open_text fixable In_channel.input_all)
  in
  let rec members key = function
    | Json.Obj ms ->
      List.concat_map
        (fun (k, v) -> (if k = key then [ v ] else []) @ members key v)
        ms
    | Json.List vs -> List.concat_map (members key) vs
    | _ -> []
  in
  List.iter
    (fun (doc, key) ->
      List.iter
        (fun escape ->
          Helpers.check_true
            (Printf.sprintf "no %s in the %s document" escape key)
            (not (contains doc escape)))
        [ "\\u0008"; "\\u000c"; "\\u000d" ];
      let names = members key (parse doc) in
      Helpers.check_true ("some " ^ key ^ " member") (names <> []);
      List.iter
        (fun v ->
          Alcotest.(check (option string))
            (key ^ " parses back to the name") (Some file) (Json.str v))
        names)
    [ (Json.to_string (Lint.to_json r), "file"); (Lint.to_sarif [ r ], "uri") ]

(* ----- multi-line fix-its ------------------------------------------ *)

let test_fix_multiline () =
  let source = "alpha\nbravo\ncharlie\ndelta" in
  (* Splice across a line boundary: line 1 col 3 through line 3 col 3
     (exclusive), swallowing the intervening line breaks. *)
  let fx = Fix.v ~line_end:3 ~span:(span 1 3 3) "X" in
  Helpers.check_true "crosses a line boundary" (Fix.is_multiline fx);
  Helpers.check_true "not an insertion" (not (Fix.is_insertion fx));
  let fixed, n = Fix.apply ~source [ fx ] in
  Alcotest.(check string) "spliced across lines" "alXarlie\ndelta" fixed;
  Alcotest.(check int) "one applied" 1 n;
  (* A single-line edit inside the swallowed region conflicts; first
     in source order wins. *)
  let fixed, n = Fix.apply ~source [ fx; Fix.v ~span:(span 2 1 6) "BRAVO" ] in
  Alcotest.(check string) "swallowed edit dropped" "alXarlie\ndelta" fixed;
  Alcotest.(check int) "conflict dropped" 1 n;
  (* A disjoint edit after the region still applies. *)
  let fixed, n = Fix.apply ~source [ fx; Fix.v ~span:(span 4 1 6) "DELTA" ] in
  Alcotest.(check string) "disjoint later edit applies" "alXarlie\nDELTA"
    fixed;
  Alcotest.(check int) "both applied" 2 n;
  (* Whole-line deletion: line 2 col 1 through line 4 col 1. *)
  let fixed, n =
    Fix.apply ~source [ Fix.v ~line_end:4 ~span:(span 2 1 1) "" ]
  in
  Alcotest.(check string) "whole lines deleted" "alpha\ndelta" fixed;
  Alcotest.(check int) "deletion applied" 1 n;
  (* line_end beyond the source is dropped, not mangled. *)
  let fixed, n =
    Fix.apply ~source [ Fix.v ~line_end:9 ~span:(span 2 1 1) "" ]
  in
  Alcotest.(check string) "out-of-range region ignored" source fixed;
  Alcotest.(check int) "nothing applied" 0 n

let test_fix_multiline_render () =
  (* A multi-line fix must surface in every renderer: end_line in the
     diagnostic JSON, endLine in the SARIF deletedRegion, and a
     multi-hunk unified diff in the --fix --dry-run preview. *)
  let fx = Fix.v ~line_end:2 ~span:(span 1 1 6) "uno" in
  let d =
    D.warningf ~code:"V0902" ~span:(span 1 1 6) ~fixes:[ fx ] "collapse"
  in
  Helpers.check_true "fix JSON carries end_line"
    (List.exists
       (fun fix -> Json.mem "end_line" fix = Some (Json.Num 2.))
       (get Json.list_ (D.to_json d) [ "fixes" ]));
  let report =
    {
      Lint.file = Some "f.dram";
      source = [| "alpha"; "bravo"; "charlie" |];
      diagnostics = [ d ];
    }
  in
  let log = Lint.to_sarif [ report ] in
  Helpers.check_true "SARIF deletedRegion carries endLine"
    (contains log "\"endLine\":2");
  Helpers.check_true "SARIF result region has no endLine"
    (not (contains log "\"startLine\":1,\"endLine\":2,\"startColumn\":1,\"endColumn\":6},\"message\""));
  match Lint.preview_fixes report with
  | None -> Alcotest.fail "preview expected"
  | Some (diff, n) ->
    Alcotest.(check int) "one fix previewed" 1 n;
    Helpers.check_true "first line removed" (contains diff "-alpha");
    Helpers.check_true "second line removed" (contains diff "-bravo");
    Helpers.check_true "replacement added" (contains diff "+uno");
    Helpers.check_true "context kept" (contains diff " charlie")

let test_fix_idempotent () =
  (* `vdram lint --fix` twice: the second pass must be a byte-for-byte
     no-op even when unfixable findings remain. *)
  let stable source =
    let r = Lint.run source in
    let fixed, _ = Lint.apply_fixes r in
    let r' = Lint.run fixed in
    let fixed', applied' = Lint.apply_fixes r' in
    Alcotest.(check int) "second pass applies nothing" 0 applied';
    Alcotest.(check string) "byte-for-byte stable" fixed fixed'
  in
  stable wrong_dim_source;
  stable mixed_fix_source;
  if Sys.file_exists fixable then
    stable (In_channel.with_open_text fixable In_channel.input_all)

(* ----- whole-sweep legality (`vdram check`, V09xx) ----------------- *)

module Check = Vdram_lint.Check
module Certificate = Vdram_absint.Certificate

let ddr3_example =
  List.find_opt Sys.file_exists
    [ "../examples/ddr3_1gb.dram"; "examples/ddr3_1gb.dram" ]

let pattern_of loop =
  match Pattern.parse ~name:"loop" loop with
  | Ok p -> p
  | Error e -> Alcotest.failf "pattern %S: %s" loop e

let gen_name (r : Check.gen_result) =
  Vdram_tech.Node.name r.Check.gen.Vdram_tech.Roadmap.node

let test_check_sweep () =
  (* A 12-cycle loop is legal at 36nm but not at 31nm or 25nm: the
     16-bank group's worst-case replay rejects it, and only the
     per-generation fallback tells its members apart. *)
  let p = pattern_of "act nop nop rd nop nop pre nop nop nop nop nop" in
  let results = Check.roadmap_results p in
  List.iter
    (fun (r : Check.gen_result) ->
      let alone =
        fst
          (Legality.replay_pattern r.Check.timing
             ~banks:r.Check.gen.Vdram_tech.Roadmap.banks p)
      in
      Alcotest.(check bool)
        (gen_name r ^ " as replayed alone")
        (alone = []) (r.Check.viols = []))
    results;
  let legal_at name =
    (List.find (fun r -> gen_name r = name) results).Check.viols = []
  in
  Helpers.check_true "legal at 36nm" (legal_at "36nm");
  Helpers.check_true "rejected at 31nm" (not (legal_at "31nm"));
  match ddr3_example with
  | None -> ()
  | Some path ->
    let r = Check.run_file path in
    let is_v09 c = String.length c = 5 && String.sub c 0 3 = "V09" in
    Helpers.check_true "a V09xx finding fires"
      (List.exists is_v09 (codes_of r.Check.report.Lint.diagnostics));
    (match r.Check.certificate with
     | None -> Alcotest.fail "certificate expected on a clean description"
     | Some c ->
       (match c.Certificate.sweep with
        | None -> Alcotest.fail "sweep entry expected"
        | Some s ->
          Helpers.check_true "legal at the authored node"
            s.Certificate.authored_legal;
          Alcotest.(check int) "all fourteen generations swept" 14
            (List.length s.Certificate.entries);
          Helpers.check_true "an offending generation is named"
            (List.exists
               (fun (e : Certificate.sweep_entry) ->
                 (not e.Certificate.legal) && e.Certificate.violations <> [])
               s.Certificate.entries)));
    (* The proposed nop padding really clears the sweep: apply it and
       re-check. *)
    let fixed, applied = Lint.apply_fixes r.Check.report in
    Helpers.check_true "sweep finding carries a fix" (applied >= 1);
    let r' = Check.run ~file:path fixed in
    Alcotest.(check (list string)) "padded loop sweeps clean" []
      (List.filter is_v09 (codes_of r'.Check.report.Lint.diagnostics));
    match r'.Check.certificate with
    | Some { Certificate.sweep = Some s; _ } ->
      Helpers.check_true "every generation legal after the fix"
        (List.for_all
           (fun (e : Certificate.sweep_entry) -> e.Certificate.legal)
           s.Certificate.entries)
    | _ -> Alcotest.fail "certificate expected after the fix"

(* The sweep times each generation from its specification alone; the
   timings must be those of the full configuration, field for field. *)
let test_sweep_timings_from_specs () =
  let timing = Alcotest.testable Timing.pp ( = ) in
  let results = Check.roadmap_results (pattern_of "act nop nop rd nop nop pre nop") in
  Alcotest.(check int) "fourteen generations" 14 (List.length results);
  List.iter2
    (fun (g : Vdram_tech.Roadmap.t) (r : Check.gen_result) ->
      let full = Vdram_core.Config.of_generation g in
      Helpers.check_true (gen_name r ^ " in roadmap order") (r.Check.gen == g);
      Helpers.check_true (gen_name r ^ " specification")
        (Vdram_core.Config.generation_spec g = full.Vdram_core.Config.spec);
      Alcotest.check timing (gen_name r ^ " timing")
        (Timing.of_config full) r.Check.timing)
    Vdram_tech.Roadmap.all results

let test_check_samples () =
  (* The --samples cross-check: concrete configurations drawn from the
     box land inside the certified bounds, and the certificate records
     the verdict. *)
  match ddr3_example with
  | None -> ()
  | Some path ->
    let r = Check.run_file ~samples:200 ~seed:7 path in
    (match r.Check.certificate with
     | Some { Certificate.samples = Some s; _ } ->
       Alcotest.(check int) "count recorded" 200 s.Certificate.count;
       Helpers.check_true "every sample inside the bounds"
         s.Certificate.contained
     | _ -> Alcotest.fail "samples entry expected")

let test_check_broken_input () =
  (* Parse and elaboration failures surface as the report, with no
     certificate. *)
  let r = Check.run accumulating_source in
  Helpers.check_true "no certificate on errors"
    (r.Check.certificate = None);
  Helpers.check_true "errors carried in the report"
    (List.exists D.is_error r.Check.report.Lint.diagnostics)

(* ----- multi-file + exit-code contract ----------------------------- *)

let test_exit_code_contract () =
  let clean = Lint.run "Device\nPart name=t node=65nm\n" in
  let warn =
    Lint.run "Device\nPart name=t node=65nm\n\nSpecification\nIO widht=16\n"
  in
  let err = Lint.run accumulating_source in
  Alcotest.(check int) "clean -> 0" 0 (Lint.exit_code [ clean ]);
  Alcotest.(check int) "warnings tolerated -> 0" 0 (Lint.exit_code [ warn ]);
  Alcotest.(check int) "warnings denied -> 1" 1
    (Lint.exit_code ~deny_warnings:true [ warn ]);
  Alcotest.(check int) "errors -> 2" 2 (Lint.exit_code [ err ]);
  Alcotest.(check int) "errors dominate warnings" 2
    (Lint.exit_code ~deny_warnings:true [ clean; warn; err ]);
  Alcotest.(check int) "multi-file clean" 0
    (Lint.exit_code [ clean; clean ])

let test_dedup () =
  (* The dimensions pass and accumulating elaboration see the same bad
     literal; the driver must report it once. *)
  let r = Lint.run "Device\nPart name=t node=banana\n" in
  let at_span =
    List.filter
      (fun (d : D.t) -> d.D.span.Span.line = 2)
      r.Lint.diagnostics
  in
  Alcotest.(check int) "one diagnostic for one bad literal" 1
    (List.length at_span)

let suite =
  [
    Alcotest.test_case "registry self-check" `Quick test_registry_self_check;
    Alcotest.test_case "accumulates errors" `Quick test_accumulates_errors;
    Alcotest.test_case "elaborate tuple contract" `Quick
      test_elaborate_tuple_contract;
    Alcotest.test_case "fix application" `Quick test_fix_apply;
    Alcotest.test_case "suggestions" `Quick test_suggest;
    Alcotest.test_case "fix round trip" `Quick test_fix_roundtrip;
    Alcotest.test_case "wrong-dimension fix-its" `Quick test_v0101_fixit;
    Alcotest.test_case "fix preview (dry run)" `Quick test_preview_fixes;
    Alcotest.test_case "fix-only code filter" `Quick test_fix_only;
    Alcotest.test_case "unified diff renderer" `Quick test_udiff_render;
    Alcotest.test_case "multi-line fix apply" `Quick test_fix_multiline;
    Alcotest.test_case "multi-line fix edge cases" `Quick test_fix_edges;
    Alcotest.test_case "CRLF fix apply" `Quick test_fix_crlf;
    Alcotest.test_case "multi-line fix renderers" `Quick
      test_fix_multiline_render;
    Alcotest.test_case "fix idempotence" `Quick test_fix_idempotent;
    Alcotest.test_case "check sweep legality" `Quick test_check_sweep;
    Alcotest.test_case "sweep timings from specifications" `Quick
      test_sweep_timings_from_specs;
    Alcotest.test_case "check sampling cross-check" `Quick
      test_check_samples;
    Alcotest.test_case "check broken input" `Quick test_check_broken_input;
    Alcotest.test_case "print/parse round trip" `Quick
      test_print_parse_roundtrip;
    Alcotest.test_case "floorplan codes" `Quick test_floorplan_codes;
    Alcotest.test_case "bank legality vs aggregate" `Quick
      test_bank_legality_vs_aggregate;
    Alcotest.test_case "tRC reuse flagged" `Quick test_trc_reuse_flagged;
    Alcotest.test_case "four-activate window" `Quick
      test_four_activate_window;
    Alcotest.test_case "examples bank-legal" `Quick test_examples_bank_legal;
    Alcotest.test_case "SARIF structure" `Quick test_sarif_structure;
    Alcotest.test_case "control bytes in a file name" `Quick
      test_control_byte_file_name;
    Alcotest.test_case "exit codes" `Quick test_exit_code_contract;
    Alcotest.test_case "front-end dedup" `Quick test_dedup;
  ]
