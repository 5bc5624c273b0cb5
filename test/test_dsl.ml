(* Description language: parser, elaborator, printer round trip. *)

open Vdram_dsl
module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model

let minimal = "Device\nPart name=test node=65nm\nSpecification\nIO width=16\n"

let parse_ok src =
  match Parser.parse src with
  | Ok ast -> ast
  | Error e ->
    Alcotest.failf "parse failed: %s" (Format.asprintf "%a" Parser.pp_error e)

let elaborate_ok src =
  match Elaborate.load_string src with
  | Ok t -> t
  | Error e ->
    Alcotest.failf "elaborate failed: %s" (Format.asprintf "%a" Parser.pp_error e)

let test_parser_sections () =
  let ast = parse_ok "Device\nPart name=x node=65nm\n# comment\nTechnology\nSet cbitline=80fF\n" in
  Alcotest.(check int) "two sections" 2 (List.length ast);
  let dev = List.hd (Ast.find_sections ast "device") in
  Alcotest.(check int) "one statement" 1 (List.length dev.Ast.stmts);
  let stmt = List.hd dev.Ast.stmts in
  Alcotest.(check (option string)) "name arg" (Some "x") (Ast.arg stmt "NAME")

let test_parser_comments_and_spacing () =
  let ast =
    parse_ok
      "Device\nPart name=x node=65nm // trailing\n  \t \nSpecification\nIO \
       width = 16 datarate=1.6Gbps\n"
  in
  let spec = List.hd (Ast.find_sections ast "Specification") in
  let stmt = List.hd spec.Ast.stmts in
  Alcotest.(check (option string)) "spaced equals fused" (Some "16")
    (Ast.arg stmt "width")

let test_parser_blocks_list () =
  let ast =
    parse_ok "FloorplanPhysical\nVertical blocks = A1 P1 P2 P1 A1\n"
  in
  let fp = List.hd ast in
  let stmt = List.hd fp.Ast.stmts in
  Alcotest.(check (list string)) "positional names"
    [ "A1"; "P1"; "P2"; "P1"; "A1" ]
    stmt.Ast.positional

let test_parser_errors () =
  (match Parser.parse "stray statement\n" with
   | Error e ->
     Alcotest.(check int) "line number" 1 e.Parser.line
   | Ok _ -> Alcotest.fail "statement before section accepted");
  match Parser.parse "Device\nPart =broken\n" with
  | Error e -> Alcotest.(check int) "error line" 2 e.Parser.line
  | Ok _ -> Alcotest.fail "malformed assignment accepted"

let test_elaborate_minimal () =
  let { Elaborate.config; pattern } = elaborate_ok minimal in
  Alcotest.(check string) "name" "test" config.Config.name;
  Alcotest.(check bool) "no pattern" true (pattern = None);
  Alcotest.(check int) "io width" 16 config.Config.spec.Vdram_core.Spec.io_width

let test_elaborate_overrides () =
  let src =
    minimal
    ^ "Technology\nSet cbitline=99fF toxlogic=4nm\nVoltages\nSupply \
       vbl=1.1V\nEfficiency pp=33%\nPattern\nPattern loop= act nop pre nop\n"
  in
  let { Elaborate.config; pattern } = elaborate_ok src in
  Helpers.close "bitline override" 99e-15
    config.Config.tech.Vdram_tech.Params.c_bitline;
  Helpers.close "tox override" 4e-9
    config.Config.tech.Vdram_tech.Params.tox_logic;
  Helpers.close "vbl override" 1.1
    config.Config.domains.Vdram_circuits.Domains.vbl;
  Helpers.close "pump efficiency override" 0.33
    config.Config.domains.Vdram_circuits.Domains.eff_pp;
  match pattern with
  | Some p -> Alcotest.(check int) "pattern length" 4 (Pattern.cycles p)
  | None -> Alcotest.fail "pattern missing"

let test_elaborate_signaling () =
  let src =
    minimal
    ^ "FloorplanSignaling\nWriteData wires=16 length=450um NchW=9.6um \
       PchW=19.2um mux=1:8\nWriteData length=1.2mm toggle=50%\n"
  in
  let { Elaborate.config; _ } = elaborate_ok src in
  match Config.bus config Vdram_circuits.Bus.Write_data with
  | None -> Alcotest.fail "write bus missing"
  | Some bus ->
    Alcotest.(check int) "two segments" 2
      (List.length bus.Vdram_circuits.Bus.segments);
    Helpers.close "explicit length" (0.45e-3 +. 1.2e-3)
      (Vdram_circuits.Bus.total_length bus)

let test_elaborate_logic_blocks () =
  let src =
    minimal
    ^ "LogicBlocks\nBlock name=ctl gates=1234 toggle=20% trigger=always\n\
       Block name=row gates=500 trigger=act,pre\n"
  in
  let { Elaborate.config; _ } = elaborate_ok src in
  Alcotest.(check int) "two blocks" 2 (List.length config.Config.logic);
  let row =
    List.find
      (fun b -> b.Vdram_circuits.Logic_block.name = "row")
      config.Config.logic
  in
  (match row.Vdram_circuits.Logic_block.trigger with
   | Vdram_circuits.Logic_block.On_operation ops ->
     Alcotest.(check int) "two trigger ops" 2 (List.length ops)
   | Vdram_circuits.Logic_block.Always -> Alcotest.fail "wrong trigger")

let test_elaborate_errors () =
  let cases =
    [
      ("missing device", "Specification\nIO width=16\n");
      ("unknown tech parameter", minimal ^ "Technology\nSet bogus=1\n");
      ("bad unit", minimal ^ "Technology\nSet cbitline=99V\n");
      ("bad mux", minimal ^ "FloorplanSignaling\nWriteData length=1mm mux=2:3\n");
      ("bad trigger", minimal ^ "LogicBlocks\nBlock name=x gates=1 trigger=zap\n");
      ("segment without length",
       minimal ^ "FloorplanSignaling\nWriteData toggle=50%\n");
      ("bad pattern", minimal ^ "Pattern\nPattern loop= act zap\n");
    ]
  in
  List.iter
    (fun (name, src) ->
      match Elaborate.load_string src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" name)
    cases

let test_floorplan_section () =
  let src =
    "Device\nPart name=fp node=65nm\nSpecification\nIO width=16\n\
     FloorplanPhysical\n\
     CellArray BitsPerBL=512 BitsPerLWL=512 BLtype=open Page=16384\n\
     Horizontal blocks = A0 R0 A1\nVertical blocks = C0 AR0 P0 AR1 C1\n\
     SizeHorizontal R0=200um\nSizeVertical C0=180um P0=600um C1=180um\n\
     Banks number=8\n"
  in
  (* Banks is in Specification per the grammar; this exercises the
     explicit axis lists. *)
  let src = String.concat "" [ src ] in
  let { Elaborate.config; _ } = elaborate_ok src in
  let fp = config.Config.floorplan in
  Alcotest.(check int) "3 horizontal blocks" 3
    (Array.length fp.Vdram_floorplan.Floorplan.horizontal);
  Alcotest.(check int) "5 vertical blocks" 5
    (Array.length fp.Vdram_floorplan.Floorplan.vertical);
  Helpers.close "row logic sized" 200e-6
    fp.Vdram_floorplan.Floorplan.horizontal.(1).Vdram_floorplan.Floorplan.size

let test_roundtrip_power () =
  List.iter
    (fun cfg ->
      let src = Printer.to_dsl ~pattern:Pattern.paper_example cfg in
      let { Elaborate.config; pattern } = elaborate_ok src in
      let p = Option.get pattern in
      Helpers.close_rel ~rel:1e-6
        ("round-trip power of " ^ cfg.Config.name)
        (Helpers.power cfg p) (Helpers.power config p);
      let spec = cfg.Config.spec and spec' = config.Config.spec in
      Helpers.close_rel ~rel:1e-6 "round-trip Idd0"
        (Model.idd cfg (Pattern.idd0 spec))
        (Model.idd config (Pattern.idd0 spec')))
    [ Lazy.force Helpers.ddr3_1g; Lazy.force Helpers.sdr_128m;
      Lazy.force Helpers.ddr5_16g ]

let test_crlf_and_case () =
  let src =
    "Device\r\nPart name=x node=65nm\r\nSpecification\r\nIO width=8\r\n"
  in
  let { Elaborate.config; _ } = elaborate_ok src in
  Alcotest.(check int) "CRLF accepted" 8
    config.Config.spec.Vdram_core.Spec.io_width

let test_technology_key_inventory () =
  Alcotest.(check int) "39 technology keys" 39
    (List.length Elaborate.technology_keys);
  Alcotest.(check int) "38 dims" 38 (List.length Elaborate.technology_dims);
  (* Every float key round-trips through a Set statement. *)
  List.iteri
    (fun i key ->
      if key <> "bitspercsl" then begin
        let dim = List.nth Elaborate.technology_dims i in
        let unit = Vdram_units.Quantity.unit_symbol dim in
        let src =
          Printf.sprintf "%sTechnology\nSet %s=0.012345%s\n" minimal key unit
        in
        let { Elaborate.config; _ } = elaborate_ok src in
        let value =
          List.nth
            (List.map
               (fun (_, get, _) -> get config.Config.tech)
               Vdram_tech.Params.fields)
            i
        in
        Helpers.close_rel ~rel:1e-9 (key ^ " override") 0.012345 value
      end)
    Elaborate.technology_keys

let test_signaling_coordinates () =
  (* start/end and inside resolve against the floorplan. *)
  let src =
    minimal
    ^ "FloorplanSignaling\nRowAddress start=0_1 end=2_1\nRowAddress \
       inside=0_1 fraction=50% dir=v\n"
  in
  let { Elaborate.config; _ } = elaborate_ok src in
  match Config.bus config Vdram_circuits.Bus.Row_address with
  | None -> Alcotest.fail "row address bus missing"
  | Some bus ->
    let fp = config.Config.floorplan in
    let expected =
      Vdram_floorplan.Floorplan.route_length fp (0, 1) (2, 1)
      +. Vdram_floorplan.Floorplan.inside_length fp (0, 1) ~frac:0.5 ~dir:`V
    in
    Helpers.close_rel ~rel:1e-9 "coordinate lengths"
      expected
      (Vdram_circuits.Bus.total_length bus)

let test_activation_via_dsl () =
  let src = minimal ^ "Specification\nInterface activation=25%\n" in
  let { Elaborate.config; _ } = elaborate_ok src in
  Helpers.close "activation fraction" 0.25 config.Config.activation_fraction

let test_pattern_case_insensitive () =
  let src = minimal ^ "Pattern\nPattern loop= ACT NOP RD NOP PRE NOP\n" in
  let { Elaborate.pattern; _ } = elaborate_ok src in
  match pattern with
  | Some p -> Alcotest.(check int) "six slots" 6 (Pattern.cycles p)
  | None -> Alcotest.fail "pattern missing"

let roundtrip_any_generation =
  QCheck.Test.make ~name:"round trip across nodes and densities" ~count:12
    QCheck.(pair (int_range 0 13) (int_range 0 2))
    (fun (node_idx, density_step) ->
      let node = List.nth Vdram_tech.Node.all node_idx in
      let g = Vdram_tech.Roadmap.generation node in
      let density =
        g.Vdram_tech.Roadmap.density_bits *. (2.0 ** float_of_int (- density_step))
      in
      QCheck.assume (density >= 2.0 ** 27.0);
      match
        Config.commodity ~node ~density_bits:density ()
      with
      | exception Invalid_argument _ -> QCheck.assume_fail ()
      | cfg ->
        let src = Printer.to_dsl ~pattern:Pattern.paper_example cfg in
        (match Elaborate.load_string src with
         | Error e ->
           QCheck.Test.fail_reportf "reload failed: %s"
             (Format.asprintf "%a" Parser.pp_error e)
         | Ok { Elaborate.config; pattern } ->
           let p = Option.get pattern in
           let a = Helpers.power cfg p and b = Helpers.power config p in
           Float.abs (a -. b) /. a < 1e-6))

let test_variant_roundtrip () =
  List.iter
    (fun cfg ->
      let src = Printer.to_dsl ~pattern:Pattern.paper_example cfg in
      let { Elaborate.config; pattern } = elaborate_ok src in
      let p = Option.get pattern in
      Helpers.close_rel ~rel:1e-6
        ("variant round trip " ^ cfg.Config.name)
        (Helpers.power cfg p) (Helpers.power config p))
    [ Vdram_configs.Variants.mobile ~node:Vdram_tech.Node.N55 ();
      Vdram_configs.Variants.graphics ~node:Vdram_tech.Node.N55 () ]

(* Every integer key of Specification and CellArray, in every example,
   set to values that once raised out of elaboration: a zero divisor,
   a fraction that truncated to zero, a value past the int range.  The
   first statement of a keyword wins in Specification, the last value
   of a key in CellArray, so the override goes before or after the
   file. *)
let test_integer_keys_never_raise () =
  let spec_keys =
    [ ("IO", "width"); ("Control", "misc"); ("Control", "bankadd");
      ("Control", "rowadd"); ("Control", "coladd"); ("Clock", "number");
      ("Banks", "number"); ("Burst", "prefetch"); ("Burst", "length");
      ("Interface", "receivers") ]
  and cell_keys = [ "page"; "CSLblocks"; "BitsPerBL"; "BitsPerLWL" ]
  and values = [ "0"; "1"; "-1"; "0.5"; "3"; "1e18"; "1e300" ] in
  let examples =
    List.filter
      (fun f -> Filename.check_suffix f ".dram")
      (Array.to_list (Sys.readdir "../examples"))
  in
  Helpers.check_true "examples found" (examples <> []);
  List.iter
    (fun name ->
      let source =
        In_channel.with_open_text (Filename.concat "../examples" name)
          In_channel.input_all
      in
      let load what src =
        match Elaborate.load_string src with
        | result -> result
        | exception e ->
          Alcotest.failf "%s with %s raised %s" name what (Printexc.to_string e)
      in
      List.iter
        (fun v ->
          List.iter
            (fun (kw, key) ->
              ignore
                (load (Printf.sprintf "%s %s=%s" kw key v)
                   (Printf.sprintf "Specification\n%s %s=%s\n%s" kw key v
                      source)))
            spec_keys;
          List.iter
            (fun key ->
              ignore
                (load (Printf.sprintf "CellArray %s=%s" key v)
                   (Printf.sprintf "%s\nFloorplanPhysical\nCellArray %s=%s\n"
                      source key v)))
            cell_keys;
          ignore
            (load ("Set bitspercsl=" ^ v)
               (Printf.sprintf "%s\nTechnology\nSet bitspercsl=%s\n" source v)))
        values;
      (* The two divisors, the bus widths, the counts that size a bus or
         that the specification divides by, and the bank geometry are
         coded diagnostics at their key. *)
      List.iter
        (fun (what, src) ->
          let code = if what = "Efficiency int=150%" then "V0312" else "V0204" in
          match load what src with
          | Error e ->
            Alcotest.(check string) (name ^ " " ^ what) code e.Parser.code;
            Helpers.check_true (name ^ " " ^ what ^ " is spanned")
              (e.Parser.line > 0)
          | Ok _ -> Alcotest.failf "%s with %s elaborated" name what)
        (List.map
           (fun stmt -> (stmt, "Voltages\n" ^ stmt ^ "\n" ^ source))
           [ "Supply vdd=0V"; "Supply vint=-1V"; "Supply vpp=1e100V";
             "Efficiency int=150%" ]
        @ List.map
           (fun stmt ->
             (stmt, source ^ "\nFloorplanPhysical\n" ^ stmt ^ "\n"))
           [ "CellArray BitsPerLWL=0"; "CellArray page=8" ]
        @ [ ("Set bitspercsl=0", source ^ "\nTechnology\nSet bitspercsl=0\n");
            ("Set bitspercsl=0.5", source ^ "\nTechnology\nSet bitspercsl=0.5\n");
            ("Block gates=-1", source ^ "\nLogicBlocks\nBlock name=x gates=-1\n") ]
        @ List.map
            (fun stmt -> (stmt, "Specification\n" ^ stmt ^ "\n" ^ source))
            [ "IO width=0"; "Clock number=0"; "Control misc=0";
              "Control rowadd=0"; "Control coladd=0"; "IO width=1e18";
              "IO width=16384"; "Density mbits=1e300"; "Banks number=0";
              "Banks number=3"; "Banks number=65536"; "Density mbits=0.0001";
              "Density mbits=0.01"; "Burst length=0"; "Burst prefetch=0";
              "IO datarate=0Gbps"; "Control frequency=0MHz"; "Timing trc=0ns" ]))
    examples

let dsl_fuzz_no_crash =
  QCheck.Test.make ~name:"parser never raises on junk" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun s ->
      match Parser.parse s with Ok _ | Error _ -> true)

let suite =
  [
    Alcotest.test_case "sections and args" `Quick test_parser_sections;
    Alcotest.test_case "comments and spacing" `Quick
      test_parser_comments_and_spacing;
    Alcotest.test_case "block lists" `Quick test_parser_blocks_list;
    Alcotest.test_case "parser errors carry lines" `Quick test_parser_errors;
    Alcotest.test_case "minimal device" `Quick test_elaborate_minimal;
    Alcotest.test_case "overrides" `Quick test_elaborate_overrides;
    Alcotest.test_case "signaling section" `Quick test_elaborate_signaling;
    Alcotest.test_case "logic blocks section" `Quick
      test_elaborate_logic_blocks;
    Alcotest.test_case "elaboration errors" `Quick test_elaborate_errors;
    Alcotest.test_case "explicit floorplan" `Quick test_floorplan_section;
    Alcotest.test_case "print/parse round trip preserves power" `Slow
      test_roundtrip_power;
    Alcotest.test_case "CRLF input" `Quick test_crlf_and_case;
    Alcotest.test_case "all 39 technology keys" `Quick
      test_technology_key_inventory;
    Alcotest.test_case "signaling coordinates" `Quick
      test_signaling_coordinates;
    Alcotest.test_case "activation via DSL" `Quick test_activation_via_dsl;
    Alcotest.test_case "pattern case-insensitive" `Quick
      test_pattern_case_insensitive;
    Alcotest.test_case "variant round trip" `Slow test_variant_roundtrip;
    Alcotest.test_case "integer keys never raise" `Quick
      test_integer_keys_never_raise;
    Helpers.qcheck roundtrip_any_generation;
    Helpers.qcheck dsl_fuzz_no_crash;
  ]
