(* One-parameter sweeps. *)

module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Report = Vdram_core.Report
module Engine = Vdram_engine.Engine
module Supervise = Vdram_engine.Supervise

type sample = {
  value : float;
  power : float;
  current : float;
  energy_per_bit : float option;
}

type t = {
  lens_name : string;
  config_name : string;
  pattern_name : string;
  samples : sample list;
}

let run ?engine ?supervisor ~lens ~values ?pattern cfg =
  let engine =
    match engine with Some e -> e | None -> Engine.serial ()
  in
  let pattern =
    match pattern with
    | Some p -> p
    | None -> Pattern.idd7_mixed cfg.Config.spec
  in
  (* Warm the nominal extraction, then sweep with it as the delta
     base: every point differs from [cfg] in one lens, so only that
     lens's dirty groups re-extract per point. *)
  let base = Engine.extraction engine cfg in
  let outcomes =
    Supervise.map_jobs ?supervisor engine ~check:Supervise.finite_report
      (fun value ->
        Engine.eval ~base engine (lens.Lenses.set cfg value) pattern)
      values
  in
  (* Under supervision a failed point just leaves a gap in the curve;
     its failure record lives on the supervisor. *)
  let samples =
    List.map2
      (fun value outcome ->
        match outcome with
        | Supervise.Done r ->
          Some
            {
              value;
              power = r.Report.power;
              current = r.Report.current;
              energy_per_bit = r.Report.energy_per_bit;
            }
        | Supervise.Failed _ | Supervise.Skipped -> None)
      values outcomes
    |> List.filter_map Fun.id
  in
  {
    lens_name = lens.Lenses.name;
    config_name = cfg.Config.name;
    pattern_name = pattern.Pattern.name;
    samples;
  }

let run_relative ?engine ?supervisor ~lens ~factors ?pattern cfg =
  let nominal = lens.Lenses.get cfg in
  run ?engine ?supervisor ~lens
    ~values:(List.map (fun f -> f *. nominal) factors)
    ?pattern cfg

let pp ppf t =
  Format.fprintf ppf "@[<v>%s sweep on %s (%s)@," t.lens_name t.config_name
    t.pattern_name;
  List.iter
    (fun s ->
      Format.fprintf ppf "  %12.5g -> %s@," s.value
        (Vdram_units.Si.format_eng ~unit_symbol:"W" s.power))
    t.samples;
  Format.fprintf ppf "@]"
