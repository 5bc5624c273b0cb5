(* The V10xx static dataflow band behind `vdram advise`: code
   registry, per-code detection on the committed inefficient example,
   the verified-rewrite contract, utilization sanity, and the
   soundness of the certified static energy floor. *)

module Advise = Vdram_lint.Advise
module Lint = Vdram_lint.Lint
module D = Vdram_diagnostics.Diagnostic
module Code = Vdram_diagnostics.Code
module Legality = Vdram_sim.Legality
module Timing = Vdram_sim.Timing
module Energy_model = Vdram_sim.Energy_model
module Pattern = Vdram_core.Pattern
module Config = Vdram_core.Config
module Spec = Vdram_core.Spec
module Json = Vdram_json.Json

let example = "../examples/inefficient.dram"

let codes_of (r : Lint.report) =
  List.sort_uniq compare (List.map (fun d -> d.D.code) r.Lint.diagnostics)

let commodity () = Config.commodity ~node:Vdram_tech.Node.N65 ()

let with_example f =
  if Sys.file_exists example then f (Advise.run_file example)

(* ----- registry ---------------------------------------------------- *)

let test_registry () =
  Alcotest.(check (list string)) "registry is consistent" []
    (Code.self_check ());
  List.iter
    (fun code ->
      (match Code.find code with
       | None -> Alcotest.failf "%s is not registered" code
       | Some i ->
         Helpers.check_true (code ^ " defaults to a warning")
           (i.Code.severity = Code.Warning);
         Helpers.check_true (code ^ " carries a rationale")
           (i.Code.rationale <> None));
      match Code.band_of code with
      | Some ("V10", _) -> ()
      | _ -> Alcotest.failf "%s is outside the V10 band" code)
    [ "V1001"; "V1002"; "V1003"; "V1004" ]

(* ----- the committed example trips every code ---------------------- *)

let test_example_codes () =
  with_example (fun a ->
      Alcotest.(check (list string)) "all four advice codes fire"
        [ "V1001"; "V1002"; "V1003"; "V1004" ]
        (codes_of a.Advise.report);
      Alcotest.(check int) "no errors" 0 (Lint.errors a.Advise.report))

let test_example_summary () =
  with_example (fun a ->
      match a.Advise.summary with
      | None -> Alcotest.fail "example has no dataflow summary"
      | Some s ->
        Helpers.check_true "loop is schedulable" s.Advise.schedulable;
        Alcotest.(check int) "no under-spaced windows" 0 s.Advise.underspaced;
        Helpers.check_true "floor below simulated energy"
          (s.Advise.floor <= s.Advise.energy);
        Helpers.check_true "waste above the V1004 threshold"
          (s.Advise.waste > 0.10);
        Helpers.check_true "ideal schedule is shorter"
          (s.Advise.ideal_cycles < s.Advise.cycles);
        (* A schedulable loop has no negative slack anywhere. *)
        List.iter
          (fun e ->
            if e.Advise.slack < 0 then
              Alcotest.failf "slot %d has negative slack %d on a \
                              schedulable loop" e.Advise.slot e.Advise.slack)
          s.Advise.slacks;
        (* Every power-down-eligible window clears tXP + 2 and prices
           a positive saving. *)
        List.iter
          (fun w ->
            if w.Advise.eligible then
              Helpers.check_true "eligible window saves energy"
                (w.Advise.savings > 0.0))
          s.Advise.idle)

(* The example must stay clean under every pre-existing band: lint
   (V00xx..V08xx) finds nothing to say about it. *)
let test_example_lint_clean () =
  if Sys.file_exists example then begin
    let r = Lint.run_file example in
    if r.Lint.diagnostics <> [] then
      Alcotest.failf "inefficient.dram not lint-clean:\n%s"
        (Format.asprintf "%a" Lint.pp_text r)
  end

(* ----- the verified-rewrite contract ------------------------------- *)

(* Applying the fix-its of one code must yield a description that (a)
   still parses and advises without errors, (b) prices strictly below
   the original, and (c) replays legal across the whole roadmap — the
   gate `verified` enforced before the fix was attached. *)
let check_fix_applies code =
  with_example (fun a ->
      match a.Advise.summary with
      | None -> Alcotest.fail "example has no summary"
      | Some s0 ->
        let fixed, applied = Lint.apply_fixes ~only:code a.Advise.report in
        if applied = 0 then
          Alcotest.failf "%s carries no applicable fix" code;
        let a' = Advise.run ~file:example fixed in
        Alcotest.(check int) "rewritten description advises cleanly" 0
          (Lint.errors a'.Advise.report);
        match a'.Advise.summary with
        | None -> Alcotest.fail "rewritten description has no summary"
        | Some s1 ->
          Helpers.check_true
            (code ^ " rewrite prices strictly below the original")
            (s1.Advise.energy < s0.Advise.energy);
          Helpers.check_true (code ^ " rewrite stays schedulable")
            s1.Advise.schedulable)

let test_fix_v1001 () = check_fix_applies "V1001"
let test_fix_v1002 () = check_fix_applies "V1002"

(* V1003 is advisory (power-down entry is controller policy) and the
   example's V1004 ideal schedule is too tight for the slow end of the
   roadmap, so neither may attach a fix that was not verified. *)
let test_unverified_fixes_withheld () =
  with_example (fun a ->
      List.iter
        (fun d ->
          if d.D.code = "V1003" && d.D.fixes <> [] then
            Alcotest.fail "V1003 is advisory and must not carry fixes")
        a.Advise.report.Lint.diagnostics)

(* Every fix the band proposes survives the sweep gate when re-checked
   from the outside. *)
let test_fixes_sweep_legal () =
  with_example (fun a ->
      let fixed, applied = Lint.apply_fixes a.Advise.report in
      Helpers.check_true "example carries applicable fixes" (applied > 0);
      match Vdram_dsl.Elaborate.load_string fixed with
      | Ok { Vdram_dsl.Elaborate.pattern = Some p; _ } ->
        Helpers.check_true "rewritten loop replays legal on all 14 \
                            roadmap generations" (Advise.sweep_legal p)
      | _ -> Alcotest.fail "rewritten description does not elaborate")

(* ----- utilization ------------------------------------------------- *)

let test_usage_idd4r () =
  (* A gapless read burst saturates the data bus by construction. *)
  let cfg = commodity () in
  let timing = Timing.of_config cfg in
  let banks = cfg.Config.spec.Spec.banks in
  let p = Pattern.idd4r cfg.Config.spec in
  let u = Legality.pattern_usage timing ~banks p in
  Helpers.check_true "idd4r saturates the data bus"
    (u.Legality.data_bus > 0.99);
  Helpers.check_true "utilization fractions stay in [0, 1]"
    (List.for_all
       (fun f -> f >= 0.0 && f <= 1.0)
       [ u.Legality.command_bus; u.Legality.data_bus; u.Legality.bank_open ])

let test_usage_empty () =
  let cfg = commodity () in
  let timing = Timing.of_config cfg in
  let u = Legality.pattern_usage timing ~banks:0 Pattern.idle in
  Helpers.check_true "degenerate loops report zero usage"
    (u.Legality.command_bus = 0.0 && u.Legality.data_bus = 0.0
     && u.Legality.bank_open = 0.0)

(* ----- soundness of the certified floor ---------------------------- *)

(* The static floor is an interval lower endpoint: it may never exceed
   the simulated loop energy, on any loop, legal or not.  Random
   command soups probe the claim well past the shapes advise was
   designed around. *)
let pattern_gen =
  QCheck.Gen.(
    let command =
      frequency
        [ (6, return "nop"); (2, return "act"); (2, return "rd");
          (1, return "wrt"); (2, return "pre") ]
    in
    list_size (int_range 1 80) command)

let pattern_arbitrary =
  QCheck.make ~print:(String.concat " ") pattern_gen

let test_floor_sound =
  let cfg = commodity () in
  QCheck.Test.make ~count:200
    ~name:"static floor never exceeds simulated loop energy"
    pattern_arbitrary
    (fun tokens ->
      match Pattern.parse ~name:"qcheck" (String.concat " " tokens) with
      | Error _ -> QCheck.assume_fail ()
      | Ok p ->
        let floor = Advise.static_bound cfg p in
        let energy = Energy_model.loop_energy cfg p in
        if floor <= energy *. (1.0 +. 1e-9) then true
        else
          QCheck.Test.fail_reportf
            "floor %.17g above simulated energy %.17g for %s" floor energy
            (Pattern.to_string p))

(* ----- the golden rendering ---------------------------------------- *)

let test_summary_json () =
  (* The summary reads back through the one JSON parser, its
     pre-spelled numbers included. *)
  with_example (fun a ->
      match Json.parse (Json.to_string (Advise.to_json a)) with
      | Error e -> Alcotest.failf "advise JSON does not parse: %s" e
      | Ok json ->
        let member k = Option.bind (Json.mem "advise" json) (Json.mem k) in
        Alcotest.(check (option bool)) "schedulable" (Some true)
          (Option.bind (member "schedulable") Json.bool_);
        List.iter
          (fun k ->
            if member k = None then Alcotest.failf "advise JSON misses %s" k)
          [ "utilization"; "slack"; "idle_windows"; "ideal_cycles" ];
        List.iter
          (fun k ->
            if Option.bind (member k) Json.num = None then
              Alcotest.failf "advise %s is not a number" k)
          [ "energy_per_iteration_j"; "certified_floor_j"; "waste" ])

let suite =
  [
    Alcotest.test_case "V10xx registry" `Quick test_registry;
    Alcotest.test_case "example trips every code" `Quick test_example_codes;
    Alcotest.test_case "example summary" `Quick test_example_summary;
    Alcotest.test_case "example clean under older bands" `Quick
      test_example_lint_clean;
    Alcotest.test_case "V1001 fix verified" `Quick test_fix_v1001;
    Alcotest.test_case "V1002 fix verified" `Quick test_fix_v1002;
    Alcotest.test_case "advisory codes carry no fixes" `Quick
      test_unverified_fixes_withheld;
    Alcotest.test_case "applied fixes sweep-legal" `Quick
      test_fixes_sweep_legal;
    Alcotest.test_case "idd4r data-bus utilization" `Quick test_usage_idd4r;
    Alcotest.test_case "degenerate usage" `Quick test_usage_empty;
    Helpers.qcheck test_floor_sound;
    Alcotest.test_case "summary JSON" `Quick test_summary_json;
  ]
