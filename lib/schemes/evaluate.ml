(* Scheme evaluation against a baseline configuration. *)

module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Operation = Vdram_core.Operation
module Engine = Vdram_engine.Engine
module Supervise = Vdram_engine.Supervise

type result = {
  scheme : Scheme.t;
  baseline_name : string;
  activate_energy_before : float;
  activate_energy_after : float;
  idd0_saving : float;
  idd4r_saving : float;
  idd7_saving : float;
  energy_per_bit_before : float;
  energy_per_bit_after : float;
  die_area_before : float;
  die_area_after : float;
}

let run ?engine baseline scheme =
  let engine =
    match engine with Some e -> e | None -> Engine.serial ()
  in
  let modified = scheme.Scheme.transform baseline in
  (* Warm the baseline's extraction, then evaluate the transformed
     configuration with it as the delta base: a scheme perturbs a few
     fields, so only the circuit groups it reaches re-extract. *)
  let base = Engine.extraction engine baseline in
  let power ?base cfg pattern = Engine.power ?base engine cfg pattern in
  let saving pattern_of =
    let before = power baseline (pattern_of baseline.Config.spec) in
    let after = power ~base modified (pattern_of modified.Config.spec) in
    (before -. after) /. before
  in
  let epb ?base cfg =
    match
      Engine.energy_per_bit ?base engine cfg
        (Pattern.idd7_mixed cfg.Config.spec)
    with
    | Some e -> e
    | None -> assert false
  in
  let die = (Engine.geometry engine baseline).Engine.die_area in
  {
    scheme;
    baseline_name = baseline.Config.name;
    activate_energy_before =
      Engine.op_energy engine baseline Operation.Activate;
    activate_energy_after =
      Engine.op_energy ~base engine modified Operation.Activate;
    idd0_saving = saving Pattern.idd0;
    idd4r_saving = saving Pattern.idd4r;
    idd7_saving = saving Pattern.idd7_mixed;
    energy_per_bit_before = epb baseline;
    energy_per_bit_after = epb ~base modified;
    die_area_before = die;
    die_area_after = die *. scheme.Scheme.area_factor;
  }

let result_check r =
  if
    List.for_all Float.is_finite
      [
        r.activate_energy_before; r.activate_energy_after; r.idd0_saving;
        r.idd4r_saving; r.idd7_saving; r.energy_per_bit_before;
        r.energy_per_bit_after; r.die_area_before; r.die_area_after;
      ]
  then None
  else
    Some
      (Printf.sprintf "non-finite scheme result %S" r.scheme.Scheme.name)

(* Under supervision a scheme whose evaluation fails drops out of the
   comparison table; its failure record lives on the supervisor. *)
let run_all ?engine ?supervisor baseline =
  let engine =
    match engine with Some e -> e | None -> Engine.serial ()
  in
  Supervise.map_jobs ?supervisor engine ~check:result_check
    (fun s -> run ~engine baseline s)
    Scheme.all
  |> List.filter_map (function Supervise.Done r -> Some r | _ -> None)

let compose schemes =
  match schemes with
  | [] -> invalid_arg "Evaluate.compose: empty scheme list"
  | _ ->
    {
      Scheme.name =
        String.concat " + "
          (List.map (fun s -> s.Scheme.name) schemes);
      reference =
        String.concat "; "
          (List.sort_uniq compare
             (List.map (fun s -> s.Scheme.reference) schemes));
      description = "composition of the listed schemes";
      transform =
        (fun cfg ->
          List.fold_left
            (fun acc s -> s.Scheme.transform acc)
            cfg schemes);
      area_factor =
        List.fold_left (fun a s -> a *. s.Scheme.area_factor) 1.0 schemes;
      area_note = "combined area impacts multiply";
    }

let run_combined ?engine baseline schemes =
  run ?engine baseline (compose schemes)

let pct f = f *. 100.0

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s (%s)@,  %s@,  activate energy %s -> %s@,  power saving: \
     Idd0 %+.1f%%, Idd4R %+.1f%%, Idd7 %+.1f%%@,  energy/bit %.1f -> \
     %.1f pJ@,  die area x%.3f (%s)@]"
    r.scheme.Scheme.name r.scheme.Scheme.reference
    r.scheme.Scheme.description
    (Vdram_units.Si.format_eng ~unit_symbol:"J" r.activate_energy_before)
    (Vdram_units.Si.format_eng ~unit_symbol:"J" r.activate_energy_after)
    (pct r.idd0_saving) (pct r.idd4r_saving) (pct r.idd7_saving)
    (r.energy_per_bit_before *. 1e12)
    (r.energy_per_bit_after *. 1e12)
    r.scheme.Scheme.area_factor r.scheme.Scheme.area_note

let pp_table ppf results =
  Format.fprintf ppf "@[<v>%-30s %9s %9s %9s %11s %8s@,"
    "scheme" "Idd0" "Idd4R" "Idd7" "pJ/bit" "area";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-30s %8.1f%% %8.1f%% %8.1f%% %5.1f>%4.1f %8.3f@,"
        r.scheme.Scheme.name (pct r.idd0_saving) (pct r.idd4r_saving)
        (pct r.idd7_saving)
        (r.energy_per_bit_before *. 1e12)
        (r.energy_per_bit_after *. 1e12)
        r.scheme.Scheme.area_factor)
    results;
  Format.fprintf ppf "@]"
