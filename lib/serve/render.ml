(* Shared report rendering: the CLI prints through these to stdout,
   the daemon renders them to response strings.  Keep the format
   strings byte-for-byte stable — serve's bit-identity contract hangs
   off them. *)

module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Report = Vdram_core.Report
module Si = Vdram_units.Si

let power ~eval ppf config p =
  Format.fprintf ppf "%a@.@." Config.pp config;
  (match Vdram_core.Validate.check config with
   | [] -> ()
   | findings ->
     List.iter
       (fun f -> Format.fprintf ppf "%a@." Vdram_core.Validate.pp_finding f)
       findings;
     Format.fprintf ppf "@.");
  let spec = config.Config.spec in
  List.iter
    (fun pat ->
      let r = eval config pat in
      Format.fprintf ppf "%-12s %10s  %10s@." pat.Pattern.name
        (Si.format_eng ~unit_symbol:"W" r.Report.power)
        (Si.format_eng ~unit_symbol:"A" r.Report.current))
    [ Pattern.idle; Pattern.idd0 spec; Pattern.idd4r spec;
      Pattern.idd4w spec; Pattern.idd7 spec ];
  Format.fprintf ppf "@.%a@." Report.pp_full (eval config p)

let sensitivity ~top ppf (s : Vdram_analysis.Sensitivity.t) =
  Format.fprintf ppf "%s | %s | nominal %s@."
    s.Vdram_analysis.Sensitivity.config_name
    s.Vdram_analysis.Sensitivity.pattern_name
    (Si.format_eng ~unit_symbol:"W" s.Vdram_analysis.Sensitivity.nominal_power);
  List.iteri
    (fun i e ->
      if i < top then
        Format.fprintf ppf "%2d  %-46s %+7.2f%%@." (i + 1)
          e.Vdram_analysis.Sensitivity.lens_name
          e.Vdram_analysis.Sensitivity.span_percent)
    s.Vdram_analysis.Sensitivity.entries

let corners ~config_name ~pattern_name ppf d =
  Format.fprintf ppf "%s | %s@.%a@." config_name pattern_name
    Vdram_analysis.Corners.pp d

let sweep ppf s = Format.fprintf ppf "%a@." Vdram_analysis.Sweep.pp s

let to_string pp v =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  pp ppf v;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let power_text ~eval config p =
  let reports = ref [] in
  let eval config pat =
    let r = eval config pat in
    reports := r :: !reports;
    r
  in
  let text = to_string (fun ppf () -> power ~eval ppf config p) () in
  (text, List.rev !reports)
