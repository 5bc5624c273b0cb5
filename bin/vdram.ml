(* vdram command-line interface. *)

open Cmdliner

module Node = Vdram_tech.Node
module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model
module Spec = Vdram_core.Spec
module Engine = Vdram_engine.Engine
module Supervise = Vdram_engine.Supervise
module Lint = Vdram_lint.Lint
module Code = Vdram_diagnostics.Code
module Protocol = Vdram_serve.Protocol
module Render = Vdram_serve.Render
module Json = Vdram_json.Json

(* ----- errors, output files and commands ---------------------------- *)

(* A command-line error: cmdliner prints "vdram: MSG" and exits 124. *)
exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* A result's value, or its error as a command-line error. *)
let get = function Ok x -> x | Error e -> raise (Failed e)

(* Every file the CLI writes goes through here, so an unwritable path
   is a command-line error rather than an uncaught exception. *)
let write_file path contents =
  try
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc contents)
  with Sys_error msg ->
    (* An open failure already reads "PATH: reason". *)
    if String.starts_with ~prefix:(path ^ ": ") msg then
      fail "cannot write %s" msg
    else fail "cannot write %s: %s" path msg

(* Every subcommand's term yields a thunk that prints its output and
   raises [Failed] on a command-line error. *)
let command name ~doc term =
  let run thunk =
    match thunk () with
    | () -> `Ok ()
    | exception Failed m -> `Error (false, m)
  in
  Cmd.v (Cmd.info name ~doc) Term.(ret (const run $ term))

(* ----- shared arguments ------------------------------------------- *)

let node =
  let parse s = Result.map_error (fun e -> `Msg e) (Protocol.parse_node s) in
  let print ppf n = Format.fprintf ppf "%s" (Node.name n) in
  Arg.(
    value
    & opt (conv (parse, print)) Node.N65
    & info [ "node" ] ~docv:"NODE"
        ~doc:"Technology node, e.g. 65nm (nearest roadmap node is used).")

let file =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"DRAM description file (.dram).")

let density_mbits =
  Arg.(
    value
    & opt (some float) None
    & info [ "density-mbits" ] ~docv:"MBITS" ~doc:"Device density in Mbit.")

let io_width =
  Arg.(
    value
    & opt (some int) None
    & info [ "io-width" ] ~docv:"N" ~doc:"DQ pins (x4/x8/x16).")

let datarate =
  Arg.(
    value
    & opt (some string) None
    & info [ "datarate" ] ~docv:"RATE" ~doc:"Per-pin data rate, e.g. 1.6Gbps.")

let pattern_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pattern" ] ~docv:"LOOP"
        ~doc:"Command loop, e.g. 'act nop wrt nop rd nop pre nop'.")

(* ----- device resolution ------------------------------------------- *)

(* The device a command evaluates: a description file with its stored
   pattern, else the commodity part at --node.  The commodity part and
   the pattern come from [Vdram_serve.Protocol], so a served request
   resolves exactly as the one-shot command does. *)
let load_config ?density_mbits ?io_width ?datarate file node =
  match file with
  | Some path ->
    (match Vdram_dsl.Elaborate.load_file path with
     | Ok { Vdram_dsl.Elaborate.config; pattern } -> Ok (config, pattern)
     | Error e ->
       Error (Format.asprintf "%s: %a" path Vdram_dsl.Parser.pp_error e))
  | None ->
    Result.map
      (fun config -> (config, None))
      (Protocol.commodity ?density_mbits ?io_width ?datarate node)

let device = Term.(const (fun file node -> load_config file node) $ file $ node)

(* [device] plus the commodity-part knobs. *)
let knob_device =
  let load file node density_mbits io_width datarate =
    load_config ?density_mbits ?io_width ?datarate file node
  in
  Term.(const load $ file $ node $ density_mbits $ io_width $ datarate)

(* A device and the pattern to evaluate on it: --pattern, else the
   description's stored loop, else the Idd7-like mixed default. *)
let with_pattern device =
  let resolve device pattern =
    Result.bind device (fun (config, stored) ->
        Result.map
          (fun p -> (config, p))
          (Protocol.resolve_pattern config stored pattern))
  in
  Term.(const resolve $ device $ pattern_arg)

(* ----- engine and supervised runtime -------------------------------- *)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for batched evaluations (default: \
              $(b,VDRAM_JOBS), else the recommended domain count of \
              this machine).")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:"Print per-stage timing, cache-hit and disk-cache \
              counters to stderr.")

let cache_arg =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:"Share extraction and pattern-mix results across runs \
              through the persistent on-disk cache (see \
              $(b,--cache-dir)).  Stale or corrupt snapshots are \
              never served: they are quarantined under the cache \
              directory and recomputed.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Disable the persistent cache even when $(b,--cache) or \
              $(b,--cache-dir) is given.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Persistent cache directory (implies $(b,--cache); \
              default $(b,VDRAM_CACHE_DIR), else _build/.vdram-cache).")

(* [--jobs] plus the persistent-cache trio, yielding an engine
   factory. *)
let engine_term =
  let make jobs cache no_cache cache_dir () =
    let store =
      if no_cache || ((not cache) && cache_dir = None) then None
      else Some (Engine.store_open ?dir:cache_dir ())
    in
    Engine.create ?jobs ?store ()
  in
  Term.(const make $ jobs_arg $ cache_arg $ no_cache_arg $ cache_dir_arg)

let keep_going_arg =
  Arg.(
    value & flag
    & info [ "keep-going"; "k" ]
        ~doc:"Isolate batch-item failures: record them (see \
              $(b,--fail-log)) and report partial results instead of \
              aborting on the first failure.  Exits 3 when any item \
              failed.")

let max_failures_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-failures" ] ~docv:"N"
        ~doc:"Tolerate at most $(docv) failed items (implies \
              $(b,--keep-going)); the batch stops once the budget is \
              exceeded.")

let fail_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fail-log" ] ~docv:"FILE"
        ~doc:"Write the machine-readable failure report (JSON, schema \
              version 1: one record per failed item with batch, \
              index, stage, input fingerprint and message) to \
              $(docv).  Implies supervision.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:"Per-item wall-clock budget: an item exceeding it is \
              recorded as a deadline failure.  Implies supervision.")

(* A supervisor (and the fail-log path) when any supervision flag is
   given or a VDRAM_FAULTS plan is present; plain runs keep the
   unsupervised engine path bit for bit. *)
let supervision =
  let build keep_going max_failures fail_log deadline =
    match Vdram_engine.Faults.of_env () with
    | Error msg -> Error (Printf.sprintf "VDRAM_FAULTS: %s" msg)
    | Ok env_plan ->
      let wanted =
        keep_going || max_failures <> None || fail_log <> None
        || deadline <> None || env_plan <> None
      in
      if not wanted then Ok (None, fail_log)
      else
        let policy =
          {
            Supervise.keep_going = keep_going || max_failures <> None;
            max_failures;
            deadline;
          }
        in
        Ok (Some (Supervise.create ~policy ()), fail_log)
  in
  Term.(
    const build $ keep_going_arg $ max_failures_arg $ fail_log_arg
    $ deadline_arg)

(* Counters on stderr: the engine stages and the disk cache when
   [stages], then the supervision counters. *)
let report_counters ~stages engine supervisor =
  if stages then begin
    Format.eprintf "engine (%d jobs):@.%a@." (Engine.jobs engine)
      Engine.pp_stats (Engine.stats engine);
    match Engine.store engine with
    | None -> ()
    | Some st ->
      let ext, mix = Engine.preloaded engine in
      Format.eprintf "disk cache %s: preloaded %d extraction / %d mix@."
        (Vdram_engine.Store.dir st) ext mix;
      Format.eprintf "disk cache i/o: %a@." Vdram_engine.Store.pp_stats
        (Vdram_engine.Store.stats st)
  end;
  Option.iter
    (fun sup ->
      Format.eprintf "supervised: %a@." Supervise.pp_counters
        (Supervise.counters sup))
    supervisor

(* End-of-run bookkeeping, shared by a finished run and the interrupt
   handler: write the caches back to the store (a no-op without one),
   report counters (all of them under --timings, the supervision
   counters alone after an interrupt), then persist the failure
   report. *)
let drain ~command ~counters engine supervisor fail_log =
  Engine.flush_store engine;
  (match counters with
   | `Quiet -> ()
   | `Supervision -> report_counters ~stages:false engine supervisor
   | `All -> report_counters ~stages:true engine supervisor);
  match (supervisor, fail_log) with
  | Some sup, Some path ->
    write_file path (Supervise.report_to_json ~command sup)
  | _ -> ()

(* Exit-code contract of the batched commands: 0 clean, 3 partial
   results (failures were recorded under --keep-going), 130/143 after
   SIGINT/SIGTERM; aborts and usage errors exit 124. *)
let exit_partial = 3

(* The batched commands' shared runtime: the engine, the supervisor,
   and a body run under it.  SIGINT/SIGTERM still leave useful state
   behind — the same drain discipline [vdram serve] applies, through
   the shared Signals module. *)
let batch ~command =
  let run mk_engine timings supervision body =
    let supervisor, fail_log = get supervision in
    let engine = mk_engine () in
    Vdram_serve.Signals.install (fun signum ->
        Format.eprintf "@.%s: interrupted; flushing partial state@." command;
        (try
           drain ~command ~counters:`Supervision engine supervisor fail_log
         with Failed m -> Format.eprintf "vdram: %s@." m);
        exit (128 + Vdram_serve.Signals.os_number signum));
    let drain () =
      drain ~command
        ~counters:(if timings then `All else `Quiet)
        engine supervisor fail_log
    in
    match body engine supervisor with
    | () ->
      drain ();
      let failures =
        match supervisor with
        | None -> 0
        | Some sup -> (Supervise.counters sup).Supervise.failures
      in
      if failures > 0 then begin
        Format.eprintf "%s: %d item(s) failed; results are partial%s@."
          command failures
          (match fail_log with
           | Some path -> Printf.sprintf " (failure report: %s)" path
           | None -> "");
        exit exit_partial
      end
    | exception Supervise.Aborted { failures; tolerated } ->
      drain ();
      fail "%s: aborted after %d failure(s) (max tolerated %d)" command
        failures tolerated
    | exception e when Option.is_some supervisor ->
      (* Even a run that dies outside the batch leaves its failure
         report behind. *)
      drain ();
      fail "%s: %s" command (Printexc.to_string e)
  in
  Term.(const run $ engine_term $ timings_arg $ supervision)

(* A batched command: [term]'s function takes the [batch] runner
   before its unit argument. *)
let batch_command name ~doc term =
  command name ~doc (Term.app term (batch ~command:name))

(* ----- power ------------------------------------------------------- *)

let power_cmd =
  let run device () =
    let config, p = get device in
    (* One extraction prices all six patterns: [Model.pattern_power]
       is [pattern_power_staged (extract cfg)].  It is taken at the
       first evaluation, as [pattern_power] took it. *)
    let extraction = lazy (Model.extract config) in
    let eval cfg p = Model.pattern_power_staged (Lazy.force extraction) cfg p in
    (* Shared with [vdram serve]: same renderer, so a daemon response is
       byte-equal to this stdout.  A report that is not finite is
       refused, as the batch commands refuse it, before anything is
       printed. *)
    let text, reports = Render.power_text ~eval config p in
    match List.find_map Supervise.finite_report reports with
    | Some msg -> fail "%s" msg
    | None -> print_string text
  in
  command "power" ~doc:"Compute power and currents of a device."
    Term.(const run $ with_pattern knob_device)

(* ----- verify ------------------------------------------------------ *)

let verify_cmd =
  let family =
    Arg.(
      value
      & opt (enum [ ("ddr2", `Ddr2); ("ddr3", `Ddr3) ]) `Ddr3
      & info [ "family" ] ~doc:"Datasheet family: ddr2 (Fig 8) or ddr3 (Fig 9).")
  in
  let run family () =
    let rows =
      match family with
      | `Ddr2 -> Vdram_datasheets.Compare.fig8 ()
      | `Ddr3 -> Vdram_datasheets.Compare.fig9 ()
    in
    List.iter
      (fun r -> Format.printf "%a@." Vdram_datasheets.Compare.pp_row r)
      rows
  in
  command "verify"
    ~doc:"Compare model currents against vendor datasheets (Figs 8/9)."
    Term.(const run $ family)

(* ----- sensitivity ------------------------------------------------- *)

let sensitivity_cmd =
  let top =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"Entries to print.")
  in
  let run device top batch () =
    let config, p = get device in
    batch (fun engine supervisor ->
        Render.sensitivity ~top Format.std_formatter
          (Vdram_analysis.Sensitivity.run ~engine ?supervisor ~pattern:p
             config))
  in
  batch_command "sensitivity"
    ~doc:"Rank parameters by power impact (Fig 10 / Table III)."
    Term.(const run $ with_pattern device $ top)

(* ----- trends ------------------------------------------------------ *)

let trends_cmd =
  let run batch () =
    batch (fun engine supervisor ->
        List.iter
          (fun p -> Format.printf "%a@." Vdram_analysis.Trends.pp_point p)
          (Vdram_analysis.Trends.all ~engine ?supervisor ()))
  in
  batch_command "trends" ~doc:"DRAM roadmap trends (Figs 11-13)."
    Term.(const run)

(* ----- schemes ----------------------------------------------------- *)

let schemes_cmd =
  let run device batch () =
    let config, _ = get device in
    batch (fun engine supervisor ->
        let results =
          Vdram_schemes.Evaluate.run_all ~engine ?supervisor config
        in
        Format.printf "baseline: %s@.@.%a@." config.Config.name
          Vdram_schemes.Evaluate.pp_table results)
  in
  batch_command "schemes"
    ~doc:"Evaluate the Section V power-reduction schemes."
    Term.(const run $ device)

(* ----- simulate ---------------------------------------------------- *)

let simulate_cmd =
  let workload =
    Arg.(
      value
      & opt
          (enum
             [ ("uniform", `Uniform); ("stream", `Stream);
               ("hotspot", `Hotspot) ])
          `Uniform
      & info [ "workload" ] ~doc:"Synthetic workload shape.")
  in
  let requests =
    Arg.(
      value & opt int 10000
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to simulate.")
  in
  let gap =
    Arg.(
      value & opt int 8
      & info [ "gap" ] ~docv:"CYCLES" ~doc:"Cycles between arrivals.")
  in
  let power_down =
    Arg.(
      value & opt (some int) None
      & info [ "power-down" ] ~docv:"CYCLES"
          ~doc:"Enter precharge power-down beyond this idle threshold.")
  in
  let closed_page =
    Arg.(value & flag & info [ "closed-page" ] ~doc:"Close rows eagerly.")
  in
  let run device workload requests gap power_down closed_page () =
    let config, _ = get device in
    let banks = config.Config.spec.Spec.banks in
    let rows = 1024 and columns = 128 in
    let trace =
      match workload with
      | `Uniform ->
        Vdram_sim.Trace.uniform ~rng:(Vdram_sim.Trace.rng 42)
          ~requests ~arrival_gap:gap ~banks ~rows ~columns
          ~write_fraction:0.3
      | `Stream ->
        Vdram_sim.Trace.streaming ~requests ~arrival_gap:gap ~banks ~rows
          ~columns ~write_fraction:0.3
      | `Hotspot ->
        Vdram_sim.Trace.hotspot ~rng:(Vdram_sim.Trace.rng 42)
          ~requests ~arrival_gap:gap ~banks ~rows ~columns
          ~write_fraction:0.3 ~hot_rows:16 ~hot_fraction:0.8
    in
    let page_policy =
      if closed_page then Vdram_sim.Controller.Closed_page
      else Vdram_sim.Controller.Open_page
    in
    let power_down =
      match power_down with
      | Some n -> Vdram_sim.Controller.Precharge_power_down n
      | None -> Vdram_sim.Controller.No_power_down
    in
    let run = Vdram_sim.Sim.simulate ~page_policy ~power_down config trace in
    Format.printf "%a@." Vdram_sim.Sim.pp_run run
  in
  command "simulate"
    ~doc:"Run a workload through the controller + power model."
    Term.(
      const run $ device $ workload $ requests $ gap $ power_down
      $ closed_page)

(* ----- validate ---------------------------------------------------- *)

let validate_cmd =
  let run device () =
    let config, _ = get device in
    match Vdram_core.Validate.check config with
    | [] -> Format.printf "%s: consistent@." config.Config.name
    | findings ->
      List.iter
        (fun f -> Format.printf "%a@." Vdram_core.Validate.pp_finding f)
        findings;
      if not (Vdram_core.Validate.is_clean config) then
        fail "%s has errors" config.Config.name
  in
  command "validate" ~doc:"Check a description for semantic consistency."
    Term.(const run $ device)

(* ----- diagnostic commands: lint, check, advise --------------------- *)

let files_arg ~required =
  let files =
    Arg.(
      pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"DRAM description files (.dram); $(b,-) reads standard \
                input.")
  in
  if required then Arg.non_empty files else Arg.value files

type diag_flags = {
  format : [ `Text | `Json | `Sarif ];
  allow : string list;
  deny_warnings : bool;
}

let diag_flags ~format_doc ~example =
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ])
          `Text
      & info [ "format" ] ~docv:"FMT" ~doc:format_doc)
  in
  let allow =
    Arg.(
      value
      & opt_all string []
      & info [ "allow" ] ~docv:"CODE"
          ~doc:
            (Printf.sprintf
               "Suppress a warning code, e.g. $(b,--allow %s). \
                Repeatable.  Errors cannot be suppressed."
               example))
  in
  let deny_warnings =
    Arg.(
      value & flag
      & info [ "deny-warnings" ]
          ~doc:"Exit non-zero when warnings remain (after $(b,--allow)).")
  in
  Term.(
    const (fun format allow deny_warnings -> { format; allow; deny_warnings })
    $ format $ allow $ deny_warnings)

type fix_flags = { fix : bool; dry_run : bool; only : string option }

let no_fixes = { fix = false; dry_run = false; only = None }

let fix_flags ~fix_doc ~example =
  let fix = Arg.(value & flag & info [ "fix" ] ~doc:fix_doc) in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"With $(b,--fix): print a unified diff of the edits to \
                standard output instead of rewriting the files.")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "fix-only" ] ~docv:"CODE"
          ~doc:
            (Printf.sprintf
               "Like $(b,--fix), but apply only the fix-its attached to \
                one diagnostic code, e.g. $(b,--fix-only %s), leaving \
                every other edit alone.  Composes with $(b,--dry-run)."
               example))
  in
  Term.(
    const (fun fix dry_run only -> { fix; dry_run; only })
    $ fix $ dry_run $ only)

(* What a diagnostic command makes of one input: ['a] carries a
   [Lint.report] plus whatever the command adds to it. *)
type 'a diagnostic = {
  of_source : ?file:string -> string -> 'a;
  of_file : string -> 'a;
  report : 'a -> Lint.report;
  with_report : 'a -> Lint.report -> 'a;
  json : 'a -> Json.t;  (** one entry of the envelope's "files" *)
  text : Format.formatter -> string -> 'a -> unit;
      (** the text rendering of one input, given its FILE argument *)
}

(* One report's compiler-style findings and its tally line. *)
let pp_findings ppf name r =
  Format.fprintf ppf "%a%s: %d error(s), %d warning(s)@." Lint.pp_text r
    name (Lint.errors r) (Lint.warnings r)

let report_name (r : Lint.report) = Option.value ~default:"<stdin>" r.Lint.file

(* The one runner behind lint, check and advise: validate the codes
   and fix flags, analyse every input (--allow applied), preview or
   apply the fix-its, print in the chosen format to [ppf], run
   [finish] (true when some input could not be analysed at all), and
   exit 0 clean, 1 when warnings remain under --deny-warnings, 2 on
   errors.  [diagnostic] is forced only once the flags are valid. *)
let run_diagnostic ~inventory ?(fixes = no_fixes) ?(ppf = Format.std_formatter)
    ?(finish = fun _ -> false) flags diagnostic files =
  let { fix; dry_run; only } = fixes in
  let fixing = fix || only <> None in
  (match
     List.find_opt (fun c -> not (Code.is_known c))
       (flags.allow @ Option.to_list only)
   with
   | Some c -> fail "unknown lint code %S (%s lists the inventory)" c inventory
   | None -> ());
  if files = [] then
    fail "no FILE given (pass description files, or --explain CODE)";
  if dry_run && not fixing then
    fail "--dry-run only makes sense with --fix or --fix-only";
  if fixing && (not dry_run) && List.mem "-" files then
    fail "--fix cannot rewrite standard input (try --dry-run)";
  let d = Lazy.force diagnostic in
  let allowed a =
    d.with_report a (Lint.suppress ~codes:flags.allow (d.report a))
  in
  let analyse f =
    if f = "-" then d.of_source (In_channel.input_all In_channel.stdin)
    else d.of_file f
  in
  let results = List.map (fun f -> (f, allowed (analyse f))) files in
  let apply_fixes (f, a) =
    if dry_run then begin
      (match Lint.preview_fixes ?only (d.report a) with
       | None -> ()
       | Some (diff, applied) ->
         Printf.eprintf "%s: %d fix(es) available (dry run)\n%!" f applied;
         print_string diff);
      (f, a)
    end
    else
      let fixed, applied = Lint.apply_fixes ?only (d.report a) in
      if applied = 0 then (f, a)
      else begin
        write_file f fixed;
        Printf.eprintf "%s: applied %d fix(es)\n%!" f applied;
        (f, allowed (d.of_source ~file:f fixed))
      end
  in
  let results = if fixing then List.map apply_fixes results else results in
  let reports = List.map (fun (_, a) -> d.report a) results in
  (match flags.format with
   | `Sarif -> Format.fprintf ppf "%s" (Lint.to_sarif reports)
   | `Json ->
     let total count =
       Json.Num (float (List.fold_left (fun n r -> n + count r) 0 reports))
     in
     Format.fprintf ppf "%s\n"
       (Json.to_string
          (Json.Obj
             [ ("version", Json.Num 1.); ("errors", total Lint.errors);
               ("warnings", total Lint.warnings);
               ("files", Json.List (List.map (fun (_, a) -> d.json a) results))
             ]))
   | `Text -> List.iter (fun (f, a) -> d.text ppf f a) results);
  Format.pp_print_flush ppf ();
  let incomplete = finish results in
  match Lint.exit_code ~deny_warnings:flags.deny_warnings reports with
  | 0 -> if incomplete then exit 2
  | n -> exit n

(* ----- lint --------------------------------------------------------- *)

let lint_cmd =
  let explain =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"CODE"
          ~doc:"Print the documentation-inventory entry for one \
                diagnostic code (severity, title, band, rationale, \
                example), e.g. $(b,--explain V1002), and exit.  No \
                files are linted.")
  in
  let lint =
    {
      of_source = Lint.run;
      of_file = Lint.run_file;
      report = Fun.id;
      with_report = (fun _ r -> r);
      json = Lint.to_json;
      text =
        (fun ppf _ r ->
          if r.Lint.diagnostics = [] then
            Format.fprintf ppf "%s: clean@." (report_name r)
          else pp_findings ppf (report_name r) r);
    }
  in
  let run files explain flags fixes () =
    match explain with
    | None ->
      run_diagnostic ~inventory:"doc/DSL.md" ~fixes flags (lazy lint) files
    | Some code ->
      (match Code.find code with
       | Some i -> Format.printf "%a@." Code.explain i
       | None ->
         let hint =
           match
             Vdram_diagnostics.Suggest.nearest
               ~candidates:(List.map (fun i -> i.Code.code) Code.all)
               code
           with
           | Some near -> Printf.sprintf " (did you mean %s?)" near
           | None -> ""
         in
         fail "unknown lint code %S%s (doc/DSL.md lists the inventory)" code
           hint)
  in
  let doc =
    "Statically analyse descriptions: syntax, dimensional analysis, \
     physical consistency, timing, finiteness, floorplan coordinates \
     and bank-aware pattern legality.  $(b,--explain CODE) prints the \
     inventory entry for one diagnostic code instead.  Exits 0 when \
     clean, 1 when warnings remain under $(b,--deny-warnings), 2 on \
     errors."
  in
  command "lint" ~doc
    Term.(
      const run $ files_arg ~required:false $ explain
      $ diag_flags ~example:"V0304"
          ~format_doc:
            "Output format: $(b,text) (compiler-style, with source \
             excerpts), $(b,json) or $(b,sarif) (SARIF 2.1.0)."
      $ fix_flags ~example:"V0101"
          ~fix_doc:
            "Apply the structured fix-its to the files in place \
             (non-overlapping edits only) and lint the result.")

(* ----- check -------------------------------------------------------- *)

let check_cmd =
  let module Check = Vdram_lint.Check in
  let module Lenses = Vdram_analysis.Lenses in
  let module Abox = Vdram_absint.Abox in
  let module Bounds = Vdram_absint.Bounds in
  let module Monotone = Vdram_absint.Monotone in
  let module Certificate = Vdram_absint.Certificate in
  let module I = Vdram_units.Interval in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:"Emit the machine-readable certificate JSON (bounds, \
                monotonicity directions, sweep legality, sampling \
                cross-check) to standard output, one object per file; \
                findings move to standard error unless $(b,--out) \
                redirects the certificate.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"With $(b,--certify): write the certificate JSON here \
                instead of standard output.")
  in
  let lens_specs =
    Arg.(
      value
      & opt_all string []
      & info [ "lens" ] ~docv:"NAME[=LO:HI]"
          ~doc:"Certify this lens axis over the scale-factor range \
                [LO, HI] (bare NAME uses the lens group's default \
                range).  Repeatable; replaces the default voltage + \
                interface axis set.")
  in
  let all_lenses =
    Arg.(
      value & flag
      & info [ "all-lenses" ]
          ~doc:"Certify every lens of the Figure 10 inventory over its \
                default range instead of the voltage + interface set.")
  in
  let splits =
    Arg.(
      value & opt int 4
      & info [ "splits" ] ~docv:"N"
          ~doc:"Branch-and-bound bisection depth behind the bounds (up \
                to 2^N leaf evaluations; at least 0).")
  in
  let cells =
    Arg.(
      value & opt int 32
      & info [ "cells" ] ~docv:"N"
          ~doc:"Deepest partition tried per monotonicity certificate \
                (at least 4, the first partition tried).")
  in
  let samples =
    Arg.(
      value & opt int 0
      & info [ "samples" ] ~docv:"N"
          ~doc:"Draw N concrete random configurations from the box and \
                assert them inside the certified bounds; the result is \
                recorded in the certificate (at least 0; 0 draws none).")
  in
  let seed =
    Arg.(
      value & opt int 0x5eed
      & info [ "seed" ] ~docv:"N" ~doc:"Seed for the sampling stream.")
  in
  let parse_axis spec =
    let name, range =
      match String.index_opt spec '=' with
      | None -> (spec, None)
      | Some i ->
        ( String.sub spec 0 i,
          Some (String.sub spec (i + 1) (String.length spec - i - 1)) )
    in
    match Lenses.find (String.trim name) with
    | None -> Error (Printf.sprintf "unknown lens %S" (String.trim name))
    | Some lens ->
      (match range with
       | None -> Ok (Abox.default_axis lens)
       | Some r ->
         (match String.split_on_char ':' r with
          | [ lo; hi ] ->
            (match (float_of_string_opt lo, float_of_string_opt hi) with
             | Some lo, Some hi
               when Float.is_finite lo && Float.is_finite hi && lo > 0.0
                    && lo <= hi ->
               Ok (Abox.axis lens ~lo ~hi)
             | _ ->
               Error
                 (Printf.sprintf "bad range %S (want finite 0 < LO <= HI)" r))
          | _ -> Error (Printf.sprintf "bad range %S (want LO:HI)" r)))
  in
  let pp_interval ppf (i : I.t) =
    Format.fprintf ppf "[%.4g, %.4g]" i.I.lo i.I.hi
  in
  let summary ppf (c : Certificate.t) =
    let b = c.Certificate.bounds in
    Format.fprintf ppf "  certified over %d axes, %d leaf boxes@."
      (Abox.dim c.Certificate.box) b.Bounds.pieces;
    Format.fprintf ppf "  power       %a W@." pp_interval b.Bounds.power;
    Format.fprintf ppf "  current     %a A@." pp_interval b.Bounds.current;
    (match b.Bounds.energy_per_bit with
     | Some e ->
       Format.fprintf ppf "  energy/bit  [%.4g, %.4g] pJ/bit@."
         (e.I.lo *. 1e12) (e.I.hi *. 1e12)
     | None -> ());
    let certified =
      List.filter
        (fun (m : Monotone.certificate) -> m.Monotone.direction <> None)
        c.Certificate.monotonicity
    in
    Format.fprintf ppf "  monotone    %d/%d axes certified"
      (List.length certified)
      (List.length c.Certificate.monotonicity);
    (match certified with
     | [] -> Format.fprintf ppf "@."
     | _ ->
       Format.fprintf ppf ": %s@."
         (String.concat ", "
            (List.map
               (fun (m : Monotone.certificate) ->
                 Printf.sprintf "%s %s" m.Monotone.lens
                   (match m.Monotone.direction with
                    | Some d -> Monotone.direction_name d
                    | None -> "?"))
               certified)));
    (match c.Certificate.sweep with
     | None -> ()
     | Some s ->
       let legal =
         List.length
           (List.filter
              (fun (e : Certificate.sweep_entry) -> e.Certificate.legal)
              s.Certificate.entries)
       in
       Format.fprintf ppf "  sweep       legal at %d/%d roadmap generations@."
         legal
         (List.length s.Certificate.entries));
    match c.Certificate.samples with
    | None -> ()
    | Some s ->
      Format.fprintf ppf "  samples     %d drawn, %s@." s.Certificate.count
        (if s.Certificate.contained then "all inside the bounds"
         else "OUTSIDE THE BOUNDS (unsound!)")
  in
  let run files certify out lens_specs all_lenses splits cells samples seed
      flags () =
    if cells < 4 then fail "--cells must be >= 4";
    if splits < 0 then fail "--splits must be >= 0";
    if samples < 0 then fail "--samples must be >= 0";
    let check =
      lazy
        (let axes =
           if lens_specs <> [] then begin
             let axes = List.map (fun s -> get (parse_axis s)) lens_specs in
             ignore
               (List.fold_left
                  (fun seen (a : Abox.axis) ->
                    let name = a.Abox.lens.Lenses.name in
                    if List.mem name seen then fail "lens %S given twice" name;
                    name :: seen)
                  [] axes);
             axes
           end
           else if all_lenses then List.map Abox.default_axis Lenses.all
           else Check.default_axes ()
         in
         {
           of_source = Check.run ~axes ~splits ~max_cells:cells ~samples ~seed;
           of_file =
             Check.run_file ~axes ~splits ~max_cells:cells ~samples ~seed;
           report = (fun r -> r.Check.report);
           with_report = (fun r report -> { r with Check.report });
           json = (fun r -> Lint.to_json r.Check.report);
           text =
             (fun ppf f r ->
               Option.iter
                 (fun c ->
                   Format.fprintf ppf "%s:@." f;
                   summary ppf c)
                 r.Check.certificate;
               pp_findings ppf f r.Check.report);
         })
    in
    (* With --certify and no --out the certificate owns stdout, so
       findings go to stderr to keep the payload machine-parseable. *)
    let ppf =
      if certify && out = None then Format.err_formatter
      else Format.std_formatter
    in
    let finish results =
      if certify then begin
        let payload =
          String.concat "\n"
            (List.filter_map
               (fun (_, r) ->
                 Option.map Certificate.to_json r.Check.certificate)
               results)
          ^ "\n"
        in
        match out with
        | Some path -> write_file path payload
        | None -> print_string payload
      end;
      List.exists (fun (_, r) -> r.Check.certificate = None) results
    in
    run_diagnostic ~inventory:"doc/CHECK.md" ~ppf ~finish flags check files
  in
  let doc =
    "Abstract interpretation over a configuration box: guaranteed \
     power/current/energy-per-bit bounds across the declared lens \
     scale ranges, per-lens monotonicity certificates, and \
     whole-sweep pattern legality across the fourteen roadmap \
     generations (V09xx).  $(b,--certify) emits the machine-readable \
     certificate contract consumed by search pruners."
  in
  command "check" ~doc
    Term.(
      const run $ files_arg ~required:true $ certify $ out $ lens_specs
      $ all_lenses $ splits $ cells $ samples $ seed
      $ diag_flags ~example:"V0902"
          ~format_doc:
            "Output format for the findings: $(b,text), $(b,json) or \
             $(b,sarif) (SARIF 2.1.0).")

(* ----- advise ------------------------------------------------------- *)

let advise_cmd =
  let module Advise = Vdram_lint.Advise in
  let waste_threshold =
    Arg.(
      value
      & opt float 0.10
      & info [ "waste-threshold" ] ~docv:"FRACTION"
          ~doc:"Actual-vs-floor energy fraction above which $(b,V1004) \
                fires (default 0.10).")
  in
  let run files waste_threshold flags fixes () =
    let advise =
      {
        of_source = Advise.run ~waste_threshold;
        of_file = Advise.run_file ~waste_threshold;
        report = (fun a -> a.Advise.report);
        with_report = (fun a report -> { a with Advise.report });
        json = Advise.to_json;
        text =
          (fun ppf _ (a : Advise.t) ->
            let r = a.Advise.report in
            Option.iter
              (fun s ->
                Format.fprintf ppf "%s:@.%a@." (report_name r)
                  Advise.pp_summary s)
              a.Advise.summary;
            if r.Lint.diagnostics = [] then
              Format.fprintf ppf "%s: no advice@." (report_name r)
            else pp_findings ppf (report_name r) r);
      }
    in
    run_diagnostic ~inventory:"doc/ADVISE.md" ~fixes flags (lazy advise) files
  in
  let doc =
    "Static dataflow analysis of the pattern loop, without a \
     simulation run: per-command slack against the binding timing \
     constraint, steady-state bus and bank utilization, row-buffer \
     locality, a power-down-eligible idle-window inventory, and the \
     loop's distance from a certified static energy floor (V10xx).  \
     Every proposed rewrite is replayed across all fourteen roadmap \
     generations and re-priced before it is offered.  Exits 0 when \
     clean, 1 when warnings remain under $(b,--deny-warnings), 2 on \
     errors."
  in
  command "advise" ~doc
    Term.(
      const run $ files_arg ~required:true $ waste_threshold
      $ diag_flags ~example:"V1003"
          ~format_doc:
            "Output format: $(b,text) (dataflow summary plus \
             compiler-style findings), $(b,json) (findings with an \
             $(b,advise) member carrying the summary) or $(b,sarif) \
             (SARIF 2.1.0)."
      $ fix_flags ~example:"V1001"
          ~fix_doc:
            "Apply the verified rewrite fix-its to the files in place \
             (non-overlapping edits only) and re-advise the result.")

(* ----- corners ------------------------------------------------------ *)

let corners_cmd =
  let samples =
    Arg.(
      value & opt int 200
      & info [ "samples" ] ~doc:"Monte-Carlo samples (at least 1).")
  in
  let spread =
    Arg.(
      value & opt float 0.10
      & info [ "spread" ]
          ~doc:"Half-width of the parameter band (0.10 = +-10%); at \
                least 0 and below 1.")
  in
  let run device samples spread batch () =
    if samples < 1 then fail "--samples must be >= 1";
    (* Every factor 1 +- spread stays positive. *)
    if not (spread >= 0.0 && spread < 1.0) then
      fail "--spread must be >= 0 and < 1";
    let config, p = get device in
    batch (fun engine supervisor ->
        let d =
          Vdram_analysis.Corners.run ~engine ?supervisor ~samples ~spread
            ~pattern:p config
        in
        Render.corners ~config_name:config.Config.name
          ~pattern_name:p.Pattern.name Format.std_formatter d)
  in
  batch_command "corners"
    ~doc:"Monte-Carlo parameter spread (the vendor-spread story)."
    Term.(const run $ with_pattern device $ samples $ spread)

(* ----- states ------------------------------------------------------- *)

let states_cmd =
  let run device () =
    let config, _ = get device in
    Format.printf "%s@." config.Config.name;
    List.iter
      (fun st ->
        Format.printf "  %-18s %10s@." (Model.state_name st)
          (Vdram_units.Si.format_eng ~unit_symbol:"W"
             (Model.state_power config st)))
      [ Model.Active_standby; Model.Precharge_standby; Model.Power_down;
        Model.Self_refresh ];
    Format.printf "  %-18s %10s@." "Idd5B (burst ref)"
      (Vdram_units.Si.format_eng ~unit_symbol:"A" (Model.idd5b config));
    Format.printf "@.peak (windowed) currents:@.";
    List.iter
      (fun p -> Format.printf "  %a@." Vdram_core.Peak.pp p)
      (Vdram_core.Peak.all config);
    Format.printf "  worst case (tFAW + burst): %6.1f mA@."
      (Vdram_core.Peak.worst_case config *. 1e3)
  in
  command "states" ~doc:"Standby-state powers and the refresh current."
    Term.(const run $ device)

(* ----- ablate ------------------------------------------------------- *)

let ablate_cmd =
  let which =
    Arg.(
      value
      & opt
          (enum
             [ ("activation", `Activation); ("bitline", `Bitline);
               ("style", `Style); ("prefetch", `Prefetch);
               ("wordline", `Wordline) ])
          `Activation
      & info [ "sweep" ] ~doc:"Which design choice to sweep.")
  in
  let run node which batch () =
    batch (fun engine supervisor ->
        let pts =
          match which with
          | `Activation ->
            Vdram_analysis.Ablation.page_size ~engine ?supervisor ~node
              ~pages:[ 1024; 2048; 4096; 8192; 16384 ] ()
          | `Bitline ->
            Vdram_analysis.Ablation.bitline_length ~engine ?supervisor ~node
              ~bits:[ 256; 512; 1024 ] ()
          | `Style ->
            Vdram_analysis.Ablation.bitline_style ~engine ?supervisor ~node ()
          | `Prefetch ->
            Vdram_analysis.Ablation.prefetch ~engine ?supervisor ~node
              ~prefetches:[ 2; 4; 8; 16; 32 ] ()
          | `Wordline ->
            Vdram_analysis.Ablation.subarray_height ~engine ?supervisor ~node
              ~bits:[ 256; 512; 1024 ] ()
        in
        Format.printf "%a@?" Vdram_analysis.Ablation.pp pts)
  in
  batch_command "ablate" ~doc:"Sweep one architectural design choice."
    Term.(const run $ node $ which)

(* ----- export ------------------------------------------------------- *)

let export_cmd =
  let outdir =
    Arg.(
      value & opt string "."
      & info [ "outdir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run node outdir () =
    let w name contents =
      let path = Filename.concat outdir name in
      write_file path contents;
      Format.printf "wrote %s@." path
    in
    w "trends.csv" (Vdram_analysis.Csv.trends (Vdram_analysis.Trends.all ()));
    w "fig8_ddr2.csv"
      (Vdram_analysis.Csv.verification (Vdram_datasheets.Compare.fig8 ()));
    w "fig9_ddr3.csv"
      (Vdram_analysis.Csv.verification (Vdram_datasheets.Compare.fig9 ()));
    w "sensitivity.csv"
      (Vdram_analysis.Csv.sensitivity
         (Vdram_analysis.Sensitivity.run (Config.commodity ~node ())))
  in
  command "export" ~doc:"Export figure data as CSV for external plotting."
    Term.(const run $ node $ outdir)

(* ----- channel ------------------------------------------------------ *)

let channel_cmd =
  let utilization =
    Arg.(
      value & opt float 0.5
      & info [ "utilization" ] ~docv:"FRACTION"
          ~doc:"Channel data-bus utilization (0..1).")
  in
  let capacity_gb =
    Arg.(
      value & opt float 8.0
      & info [ "capacity-gb" ] ~docv:"GB" ~doc:"DIMM capacity in GB.")
  in
  let run node utilization capacity_gb () =
    let cfg = Config.commodity ~node () in
    let ch = Vdram_link.Channel.for_config cfg in
    Format.printf "channel: %a@." Vdram_link.Channel.pp ch;
    Format.printf "link power at %.0f%%: %s (%.2f pJ/bit)@.@."
      (utilization *. 100.0)
      (Vdram_units.Si.format_eng ~unit_symbol:"W"
         (Vdram_link.Channel.power ch ~utilization))
      (Vdram_link.Channel.energy_per_bit ch ~utilization *. 1e12);
    let capacity_bits = capacity_gb *. 8.0 *. (2.0 ** 30.0) in
    Format.printf "DIMM organizations (%.0f GB, %.0f%% utilization):@."
      capacity_gb (utilization *. 100.0);
    List.iter
      (fun r -> Format.printf "  %a@." Vdram_link.Dimm.pp_result r)
      (Vdram_link.Dimm.compare_widths ~node ~capacity_bits
         ~utilization [ 4; 8; 16 ])
  in
  command "channel" ~doc:"Link and DIMM-level power (device + channel)."
    Term.(const run $ node $ utilization $ capacity_gb)

(* ----- dump -------------------------------------------------------- *)

let dump_cmd =
  let run node density_mbits io_width datarate () =
    let config =
      get (Protocol.commodity ?density_mbits ?io_width ?datarate node)
    in
    print_string
      (Vdram_dsl.Printer.to_dsl ~pattern:Pattern.paper_example config)
  in
  command "dump"
    ~doc:"Emit the description-language source of a roadmap device."
    Term.(const run $ node $ density_mbits $ io_width $ datarate)

(* ----- serve ------------------------------------------------------- *)

let serve_cmd =
  let module Server = Vdram_serve.Server in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Listen on a TCP socket (port 0 picks a free port).")
  in
  let max_inflight =
    Arg.(
      value & opt int 8
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Concurrent computations; excess requests are rejected \
                with an $(i,overloaded) error and a retry-after hint.")
  in
  let max_clients =
    Arg.(
      value & opt int 64
      & info [ "max-clients" ] ~docv:"N"
          ~doc:"Concurrent connections; excess connections are turned \
                away.")
  in
  let max_frame_bytes =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-frame-bytes" ] ~docv:"BYTES"
          ~doc:"Longest accepted request line; longer frames are \
                rejected as bad frames and the stream resynchronises \
                at the next newline.")
  in
  let drain_grace =
    Arg.(
      value & opt float 5.0
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:"How long a drain (SIGINT/SIGTERM) waits for in-flight \
                requests before force-aborting them.")
  in
  let run socket tcp max_inflight max_clients max_frame_bytes drain_grace
      mk_engine timings () =
    let listener =
      match (socket, tcp) with
      | Some _, Some _ ->
        fail "serve: --socket and --tcp are mutually exclusive"
      | Some path, None -> Server.Unix_path path
      | None, Some hostport ->
        let bad () = fail "serve: expected --tcp HOST:PORT" in
        (match String.rindex_opt hostport ':' with
         | None -> bad ()
         | Some i ->
           let host = String.sub hostport 0 i in
           let host = if host = "" then "127.0.0.1" else host in
           (match
              int_of_string_opt
                (String.sub hostport (i + 1)
                   (String.length hostport - i - 1))
            with
            | Some port when port >= 0 && port < 65536 ->
              Server.Tcp (host, port)
            | _ -> bad ()))
      | None, None ->
        fail "serve: pick a listener: --socket PATH or --tcp HOST:PORT"
    in
    let engine = mk_engine () in
    let cfg =
      {
        (Server.default_config listener) with
        Server.max_inflight;
        max_clients;
        max_frame_bytes;
        drain_grace;
      }
    in
    let server =
      Result.fold ~ok:Fun.id
        ~error:(fail "serve: %s")
        (Server.create ~engine cfg)
    in
    Vdram_serve.Signals.install (fun _ -> Server.drain server);
    (match Server.address server with
     | Unix.ADDR_UNIX path ->
       Format.eprintf "vdram serve: listening on %s@." path
     | Unix.ADDR_INET (addr, port) ->
       Format.eprintf "vdram serve: listening on %s:%d@."
         (Unix.string_of_inet_addr addr)
         port);
    Server.serve server;
    Format.eprintf "vdram serve: drained@.";
    if timings then report_counters ~stages:true engine None
  in
  command "serve"
    ~doc:"Persistent evaluation daemon over line-delimited JSON (see \
          doc/SERVE.md)."
    Term.(
      const run $ socket $ tcp $ max_inflight $ max_clients
      $ max_frame_bytes $ drain_grace $ engine_term $ timings_arg)

let () =
  let doc = "flexible analytical DRAM power model (Vogelsang, MICRO 2010)" in
  let info = Cmd.info "vdram" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ power_cmd; verify_cmd; sensitivity_cmd; trends_cmd; schemes_cmd;
            simulate_cmd; corners_cmd; states_cmd; ablate_cmd; export_cmd;
            validate_cmd; lint_cmd; check_cmd; advise_cmd; channel_cmd;
            dump_cmd; serve_cmd ]))
