(* Parameter sensitivity: vary each lens +-20%, rank by power span. *)

module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Engine = Vdram_engine.Engine
module Supervise = Vdram_engine.Supervise

type entry = {
  lens_name : string;
  power_minus : float;
  power_plus : float;
  span_percent : float;
}

type t = {
  config_name : string;
  pattern_name : string;
  nominal_power : float;
  variation : float;
  entries : entry list;
}

let default_lenses =
  List.filter (fun l -> l.Lenses.name <> "external voltage Vdd") Lenses.all

let run ?engine ?supervisor ?(variation = 0.20) ?(lenses = default_lenses)
    ?pattern cfg =
  let engine =
    match engine with Some e -> e | None -> Engine.serial ()
  in
  let pattern =
    match pattern with
    | Some p -> p
    | None -> Pattern.idd7_mixed cfg.Config.spec
  in
  let nominal = Engine.power engine cfg pattern in
  (* One job per perturbed configuration; the pool evaluates the batch
     and the ordered merge pairs results back up with their lenses. *)
  let perturbed =
    List.concat_map
      (fun lens ->
        [
          Lenses.scale lens (1.0 +. variation) cfg;
          Lenses.scale lens (1.0 -. variation) cfg;
        ])
      lenses
  in
  let check p =
    if Float.is_finite p then None else Some "non-finite power"
  in
  (* Every perturbed configuration is one lens away from [cfg], whose
     extraction the nominal evaluation above just cached: as the delta
     base it re-extracts only the lens's dirty groups. *)
  let base = Engine.extraction engine cfg in
  let powers =
    Supervise.map_jobs ?supervisor engine ~check
      (fun c -> Engine.power ~base engine c pattern)
      perturbed
  in
  (* Each lens owns two consecutive batch slots (+variation then
     -variation); under supervision a lens whose either sample failed
     is dropped from the ranking rather than misaligning the pairing. *)
  let rec pair lenses powers =
    match (lenses, powers) with
    | [], [] -> []
    | ( lens :: lenses,
        Supervise.Done power_plus :: Supervise.Done power_minus :: powers ) ->
      {
        lens_name = lens.Lenses.name;
        power_minus;
        power_plus;
        span_percent = (power_plus -. power_minus) /. nominal *. 100.0;
      }
      :: pair lenses powers
    | lens :: lenses, _ :: _ :: powers ->
      ignore lens;
      pair lenses powers
    | _ -> assert false
  in
  let entries =
    pair lenses powers
    |> List.sort (fun a b ->
           Float.compare (Float.abs b.span_percent) (Float.abs a.span_percent))
  in
  {
    config_name = cfg.Config.name;
    pattern_name = pattern.Pattern.name;
    nominal_power = nominal;
    variation;
    entries;
  }

let top n t = List.filteri (fun i _ -> i < n) t.entries

let pp ppf t =
  Format.fprintf ppf "@[<v>%s | %s | nominal %s | +-%.0f%%@," t.config_name
    t.pattern_name
    (Vdram_units.Si.format_eng ~unit_symbol:"W" t.nominal_power)
    (t.variation *. 100.0);
  List.iter
    (fun e ->
      Format.fprintf ppf "  %-46s %+6.2f%%@," e.lens_name e.span_percent)
    t.entries;
  Format.fprintf ppf "@]"
