(* The `vdram check` driver: abstract interpretation of the energy
   model over a configuration box.

   Three analyses ride on the interval evaluator in {!Vdram_absint}:
   guaranteed bounds over the declared lens ranges, monotonicity
   certificates per lens axis, and whole-sweep legality of the
   pattern loop across the roadmap generations.  Findings come back
   as ordinary diagnostics (the V09xx band), so the lint renderers —
   text, JSON, SARIF, fix-its — work unchanged. *)

module Parser = Vdram_dsl.Parser
module Elaborate = Vdram_dsl.Elaborate
module Ast = Vdram_dsl.Ast
module Config = Vdram_core.Config
module Spec = Vdram_core.Spec
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model
module Report = Vdram_core.Report
module Timing = Vdram_sim.Timing
module Legality = Vdram_sim.Legality
module Roadmap = Vdram_tech.Roadmap
module Node = Vdram_tech.Node
module Lenses = Vdram_analysis.Lenses
module I = Vdram_units.Interval
module Abox = Vdram_absint.Abox
module Bounds = Vdram_absint.Bounds
module Monotone = Vdram_absint.Monotone
module Certificate = Vdram_absint.Certificate
module Span = Vdram_diagnostics.Span
module D = Vdram_diagnostics.Diagnostic
module Fix = Vdram_diagnostics.Fix

type t = {
  report : Lint.report;
  certificate : Certificate.t option;
}

(* Voltages and interface loads are what a board designer actually
   sweeps; certifying all 56 lenses is opt-in (--all-lenses). *)
let default_axes () =
  List.map Abox.default_axis (Lenses.voltages @ Lenses.interface)

let metric_for p =
  if Pattern.count p Pattern.Rd + Pattern.count p Pattern.Wr > 0 then
    Monotone.Energy_per_bit
  else Monotone.Power

(* ----- whole-sweep legality ---------------------------------------- *)

type gen_result = {
  gen : Roadmap.t;
  timing : Timing.t;
  viols : Legality.violation list;
}

(* Replay the pattern across all fourteen roadmap generations, each
   timed from its specification alone ({!Timing.of_generation}).  The
   generations are grouped by bank count — the replay's bank rotation
   and the rank-level tRRD/tFAW gates depend on it — and each group is
   cleared with a single replay against the fold of
   {!Timing.worst_case} over its members: every legality gate is
   monotone nondecreasing in the timing fields, so a loop legal under
   the worst case is legal under every member.  Only when the worst
   case fails does the group fall back to per-generation replays
   (the converse does not hold). *)
let roadmap_results (p : Pattern.t) =
  let gens = Roadmap.all in
  let with_timing = List.map (fun g -> (g, Timing.of_generation g)) gens in
  let bank_counts =
    List.sort_uniq compare (List.map (fun g -> g.Roadmap.banks) gens)
  in
  let by_group =
    List.concat_map
      (fun banks ->
        let members =
          List.filter (fun (g, _) -> g.Roadmap.banks = banks) with_timing
        in
        let worst =
          match members with
          | (_, t) :: rest ->
            List.fold_left (fun acc (_, t) -> Timing.worst_case acc t) t rest
          | [] -> assert false
        in
        if fst (Legality.replay_pattern worst ~banks p) = [] then
          List.map (fun (gen, timing) -> { gen; timing; viols = [] }) members
        else
          List.map
            (fun (gen, timing) ->
              { gen; timing;
                viols = fst (Legality.replay_pattern timing ~banks p) })
            members)
      bank_counts
  in
  (* Back into roadmap order. *)
  List.map
    (fun g -> List.find (fun r -> r.gen.Roadmap.node == g.Roadmap.node) by_group)
    gens

let cap_messages n msgs =
  let total = List.length msgs in
  if total <= n then msgs
  else
    List.filteri (fun i _ -> i < n) msgs
    @ [ Printf.sprintf "... and %d more" (total - n) ]

let sweep_of_results ~authored_node ~authored_legal results =
  {
    Certificate.authored_node;
    authored_legal;
    entries =
      List.map
        (fun r ->
          {
            Certificate.node = Node.name r.gen.Roadmap.node;
            legal = r.viols = [];
            violations = cap_messages 4 (List.map Legality.message r.viols);
          })
        results;
  }

let kind_code = function
  | Legality.Act_to_act -> "V0901"
  | Legality.Act_spacing | Legality.Four_activate -> "V0902"
  | Legality.Bank_busy | Legality.Col_timing | Legality.Pre_timing
  | Legality.Ref_timing -> "V0903"

(* Fix-it: pad the loop tail with nops, verified by replaying the
   padded loop against the authored timing and every roadmap
   generation — only a padding that actually clears the sweep is
   proposed.  The starting guess is the worst window overshoot. *)
let nop_fix ~ast ~authored (p : Pattern.t) results =
  match Passes.pattern_stmt ast with
  | Some st when List.length st.Ast.positional_spans = Pattern.cycles p ->
    let deficit =
      List.fold_left
        (fun acc r ->
          List.fold_left
            (fun acc (v : Legality.violation) ->
              max acc (v.Legality.earliest - v.Legality.at))
            acc r.viols)
        0 results
    in
    if deficit <= 0 then []
    else begin
      let authored_t, authored_banks = authored in
      let clears n =
        let padded =
          Pattern.v ~name:p.Pattern.name
            (p.Pattern.slots @ [ (Pattern.Nop, n) ])
        in
        fst (Legality.replay_pattern authored_t ~banks:authored_banks padded)
        = []
        && List.for_all
             (fun r ->
               fst
                 (Legality.replay_pattern r.timing ~banks:r.gen.Roadmap.banks
                    padded)
               = [])
             results
      in
      let rec search n tries =
        if tries = 0 then None
        else if clears n then Some n
        else search (2 * n) (tries - 1)
      in
      match search deficit 4 with
      | None -> []
      | Some n ->
        let last =
          List.nth st.Ast.positional_spans
            (List.length st.Ast.positional_spans - 1)
        in
        let at = max last.Span.col_start last.Span.col_end in
        let span = { last with Span.col_start = at; col_end = at } in
        [ Fix.v ~span (String.concat "" (List.init n (fun _ -> " nop"))) ]
    end
  | _ -> []

let sweep_diagnostics ~ast ~authored ~authored_legal (p : Pattern.t) results =
  (* A loop illegal at its own node is the V08xx pass's finding; the
     sweep band flags exactly the ones that are fine here but break
     elsewhere on the roadmap. *)
  if not authored_legal then []
  else
    let offenders = List.filter (fun r -> r.viols <> []) results in
    if offenders = [] then []
    else begin
      let cycles = Pattern.cycles p in
      let total = List.length results in
      let fixes = nop_fix ~ast ~authored p offenders in
      List.filter_map
        (fun code ->
          let offending =
            List.filter_map
              (fun r ->
                match
                  List.filter
                    (fun (v : Legality.violation) -> kind_code v.Legality.kind = code)
                    r.viols
                with
                | [] -> None
                | vs -> Some (r, vs))
              offenders
          in
          match offending with
          | [] -> None
          | (r0, v0 :: _) :: _ ->
            let nodes =
              List.map
                (fun (r, _) -> Node.name r.gen.Roadmap.node)
                offending
            in
            Some
              (D.warningf ~code
                 ~span:
                   (Passes.pattern_slot_span ast ~cycles
                      (v0.Legality.at mod cycles))
                 ~notes:
                   [ Printf.sprintf
                       "legal at the authored node but not across the \
                        roadmap: %d of %d generations reject it (%s)"
                       (List.length offenders) total
                       (String.concat ", " nodes);
                     Printf.sprintf "at %s for example: %s"
                       (Node.name r0.gen.Roadmap.node)
                       (Legality.message v0) ]
                 ~help:
                   "pad the loop with nop cycles until the slowest \
                    roadmap generation meets its timing windows"
                 ~fixes
                 "pattern slot %d is legal here but violates timing \
                  elsewhere on the roadmap sweep"
                 (v0.Legality.at mod cycles))
          | _ -> None)
        [ "V0901"; "V0902"; "V0903" ]
    end

(* ----- sampling cross-check ---------------------------------------- *)

let sample_check ~seed ~count box p (b : Bounds.t) =
  let st = Random.State.make [| seed |] in
  let axes = Abox.axes box in
  let contained = ref true in
  for _ = 1 to count do
    let scales =
      List.map
        (fun (a : Abox.axis) ->
          let s : I.t = a.Abox.scale in
          if s.I.hi > s.I.lo then
            s.I.lo +. Random.State.float st (s.I.hi -. s.I.lo)
          else s.I.lo)
        axes
    in
    let cfg = Abox.instantiate box scales in
    let r = Model.pattern_power cfg p in
    let inside (i : I.t) x = x >= i.I.lo && x <= i.I.hi in
    let ok =
      inside b.Bounds.power r.Report.power
      && inside b.Bounds.current r.Report.current
      && inside b.Bounds.background r.Report.background_power
      &&
      match (b.Bounds.energy_per_bit, r.Report.energy_per_bit) with
      | Some i, Some e -> inside i e
      | None, None -> true
      | _ -> false
    in
    if not ok then contained := false
  done;
  { Certificate.count; contained = !contained }

(* ----- driver ------------------------------------------------------ *)

let run ?axes ?(splits = 4) ?(max_cells = 32) ?(samples = 0)
    ?(seed = 0x5eed) ?file source =
  let axes = match axes with Some a -> a | None -> default_axes () in
  let base_report diagnostics =
    {
      Lint.file;
      source = Array.of_list (String.split_on_char '\n' source);
      diagnostics = List.stable_sort D.compare_source diagnostics;
    }
  in
  match Parser.parse ?file source with
  | Error e ->
    { report = base_report [ Parser.to_diagnostic e ]; certificate = None }
  | Ok ast ->
    let config, elab = Elaborate.elaborate ast in
    let errors = List.filter D.is_error elab in
    (match (config, errors) with
     | None, _ | _, _ :: _ ->
       { report = base_report errors; certificate = None }
     | Some { Elaborate.config = cfg; pattern }, [] ->
       let pattern =
         match pattern with
         | Some p -> p
         | None -> Pattern.idd4r cfg.Config.spec
       in
       let box = Abox.v ~base:cfg axes in
       let bounds = Bounds.compute ~splits box pattern in
       let metric = metric_for pattern in
       let monotonicity =
         List.map
           (fun (a : Abox.axis) ->
             let s : I.t = a.Abox.scale in
             Monotone.certify ~max_cells ~base:cfg ~lens:a.Abox.lens
               ~lo:s.I.lo ~hi:s.I.hi ~metric pattern)
           axes
       in
       let authored_t = Timing.of_config cfg in
       let authored_banks = cfg.Config.spec.Spec.banks in
       let authored_legal =
         fst (Legality.replay_pattern authored_t ~banks:authored_banks pattern)
         = []
       in
       let results = roadmap_results pattern in
       let sweep =
         sweep_of_results
           ~authored_node:(Node.name cfg.Config.node)
           ~authored_legal results
       in
       let diags =
         sweep_diagnostics ~ast
           ~authored:(authored_t, authored_banks)
           ~authored_legal pattern results
       in
       let samples =
         if samples > 0 then
           Some (sample_check ~seed ~count:samples box pattern bounds)
         else None
       in
       let certificate =
         Certificate.v ~sweep ?samples ~config:cfg ~pattern ~box ~splits
           ~bounds ~monotonicity ()
       in
       { report = base_report diags; certificate = Some certificate })

let run_file ?axes ?splits ?max_cells ?samples ?seed path =
  match In_channel.with_open_text path In_channel.input_all with
  | source -> run ?axes ?splits ?max_cells ?samples ?seed ~file:path source
  | exception Sys_error msg ->
    {
      report =
        {
          Lint.file = Some path;
          source = [||];
          diagnostics = [ D.errorf ~code:"V0006" "%s" msg ];
        };
      certificate = None;
    }
