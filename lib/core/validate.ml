(* Semantic consistency checks over a configuration. *)

module G = Vdram_floorplan.Array_geometry
module Domains = Vdram_circuits.Domains
module Logic_block = Vdram_circuits.Logic_block
module Diagnostic = Vdram_diagnostics.Diagnostic

type severity = Vdram_diagnostics.Code.severity = Error | Warning

type finding = Diagnostic.t

let check (cfg : Config.t) =
  let findings = ref [] in
  let add severity code ?help fmt =
    Printf.ksprintf
      (fun message ->
        findings := Diagnostic.v ~severity ~code ?help message :: !findings)
      fmt
  in
  let d = cfg.Config.domains in
  let spec = cfg.Config.spec in
  let g = Config.geometry cfg in
  (* Voltage ordering. *)
  if d.Domains.vpp <= d.Domains.vbl +. 0.5 then
    add Error "V0301"
      ~help:"raise vpp or lower vbl so that vpp > vbl + 0.5 V"
      "Vpp (%.2f V) leaves no write-back headroom over Vbl (%.2f V)"
      d.Domains.vpp d.Domains.vbl;
  if d.Domains.vbl > d.Domains.vint +. 0.3 then
    add Warning "V0302"
      "bitline voltage %.2f V above Vint %.2f V is unusual"
      d.Domains.vbl d.Domains.vint;
  if d.Domains.vint > d.Domains.vdd +. 1e-9 then
    add Error "V0303"
      "Vint %.2f V above the external supply %.2f V needs a pump"
      d.Domains.vint d.Domains.vdd;
  (* Addressing covers the density.  Guard the division: a zero or
     non-finite density would otherwise turn the relative-error test
     into NaN comparisons that silently skip the check. *)
  if
    (not (Float.is_finite spec.Spec.density_bits))
    || spec.Spec.density_bits <= 0.0
  then
    add Error "V0305" "device density %g bits is not a positive number"
      spec.Spec.density_bits
  else begin
    let covered =
      float_of_int spec.Spec.banks
      *. (2.0 ** float_of_int spec.Spec.row_bits)
      *. float_of_int (Config.page_bits cfg)
    in
    if
      Float.abs (covered -. spec.Spec.density_bits) /. spec.Spec.density_bits
      > 1e-6
    then
      add Warning "V0304"
        "banks x rows x page (%.3g bits) does not equal the density (%.3g)"
        covered spec.Spec.density_bits
  end;
  (* Geometry. *)
  if Config.page_bits cfg mod g.G.bits_per_lwl <> 0 then
    add Error "V0306" "page is not a whole number of local wordlines";
  if g.G.sa_stripe >= G.subarray_height g then
    add Warning "V0307" "sense-amplifier stripe wider than a sub-array";
  if g.G.lwd_stripe >= G.subarray_width g then
    add Warning "V0308" "wordline-driver stripe wider than a sub-array";
  if
    cfg.Config.activation_fraction <= 0.0
    || cfg.Config.activation_fraction > 1.0
  then add Error "V0309" "activation fraction outside (0, 1]";
  (* Interface arithmetic. *)
  let beats =
    float_of_int spec.Spec.burst_length /. Spec.bits_per_clock spec
  in
  if beats < 1.0 then
    add Warning "V0310" "burst shorter than one command clock";
  if spec.Spec.burst_length < spec.Spec.prefetch then
    add Error "V0311" "burst length %d below the prefetch %d cannot stream"
      spec.Spec.burst_length spec.Spec.prefetch;
  (* Efficiencies and activities. *)
  List.iter
    (fun (name, e) ->
      if not (Domains.efficiency_ok e) then
        add Error "V0312" "%s efficiency %.2f outside (0, 1]" name e)
    [ ("Vint", d.Domains.eff_int); ("Vbl", d.Domains.eff_bl);
      ("Vpp", d.Domains.eff_pp) ];
  List.iter
    (fun (b : Logic_block.t) ->
      if b.Logic_block.toggle < 0.0 || b.Logic_block.toggle > 1.0 then
        add Warning "V0313" "logic block %S toggle %.2f outside [0, 1]"
          b.Logic_block.name b.Logic_block.toggle)
    cfg.Config.logic;
  if cfg.Config.data_toggle < 0.0 || cfg.Config.data_toggle > 1.0 then
    add Error "V0314" "data toggle outside [0, 1]";
  (* Errors first, then warnings, in discovery order. *)
  let errors, warnings =
    List.partition Diagnostic.is_error (List.rev !findings)
  in
  errors @ warnings

let is_clean cfg = not (List.exists Diagnostic.is_error (check cfg))

let pp_finding = Diagnostic.pp
