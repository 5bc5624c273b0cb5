(* Design-choice ablations over the commodity configuration. *)

module Node = Vdram_tech.Node
module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Operation = Vdram_core.Operation
module Report = Vdram_core.Report
module Array_geometry = Vdram_floorplan.Array_geometry
module Engine = Vdram_engine.Engine
module Supervise = Vdram_engine.Supervise

type point = {
  label : string;
  power : float;
  energy_per_bit : float;
  activate_energy : float;
  die_area : float;
  array_efficiency : float;
}

let measure ~base ~engine ~label cfg =
  let r = Engine.eval ~base engine cfg (Pattern.idd7_mixed cfg.Config.spec) in
  let g = Engine.geometry engine cfg in
  {
    label;
    power = r.Report.power;
    energy_per_bit = Option.value ~default:0.0 r.Report.energy_per_bit;
    activate_energy = Engine.op_energy ~base engine cfg Operation.Activate;
    die_area = g.Engine.die_area;
    array_efficiency = g.Engine.array_efficiency;
  }

let point_check p =
  if
    List.for_all Float.is_finite
      [
        p.power; p.energy_per_bit; p.activate_energy; p.die_area;
        p.array_efficiency;
      ]
  then None
  else Some (Printf.sprintf "non-finite ablation point %S" p.label)

(* Each ablation first builds its (label, configuration) variants —
   cheap — then fans the model evaluations out on the pool.  Under
   supervision a failed variant is dropped from the listing and
   recorded on the supervisor. *)
let build ?engine ?supervisor ~node f =
  let engine =
    match engine with Some e -> e | None -> Engine.serial ()
  in
  let variants =
    f (fun ?page_bits ?bits_per_bitline ?bits_per_lwl ?style ?prefetch () ->
        Config.commodity ?page_bits ?bits_per_bitline ?bits_per_lwl ?style
          ?prefetch ~node ())
  in
  (* Every variant is the commodity configuration at [node] with one
     design choice changed: extract the unmodified configuration and
     splice each variant's untouched circuit groups from it. *)
  let base = Engine.extraction engine (Config.commodity ~node ()) in
  Supervise.map_jobs ?supervisor engine ~check:point_check
    (fun (label, cfg) -> measure ~base ~engine ~label cfg)
    variants
  |> List.filter_map (function Supervise.Done p -> Some p | _ -> None)

let page_size ?engine ?supervisor ~node ~pages () =
  build ?engine ?supervisor ~node (fun make ->
      let cfg = make () in
      let full = Config.page_bits cfg in
      List.map
        (fun page ->
          let page = min page full in
          ( Printf.sprintf "%d-bit activation (%d B)" page (page / 8),
            Config.with_activation_fraction cfg
              (float_of_int page /. float_of_int full) ))
        pages)

let bitline_length ?engine ?supervisor ~node ~bits () =
  build ?engine ?supervisor ~node (fun make ->
      List.map
        (fun n ->
          (* Shorter bitlines carry proportionally less capacitance. *)
          let cfg = make ~bits_per_bitline:n () in
          let t = cfg.Config.tech in
          let scale =
            float_of_int n
            /. float_of_int
                 (Vdram_tech.Roadmap.generation node)
                   .Vdram_tech.Roadmap.bits_per_bitline
          in
          let cfg =
            Config.with_tech cfg
              {
                t with
                Vdram_tech.Params.c_bitline =
                  t.Vdram_tech.Params.c_bitline *. scale;
              }
          in
          (Printf.sprintf "%d cells per bitline" n, cfg))
        bits)

let bitline_style ?engine ?supervisor ~node () =
  build ?engine ?supervisor ~node (fun make ->
      [
        ("open bitline (6F2-style)", make ~style:Array_geometry.Open ());
        ("folded bitline (8F2-style)", make ~style:Array_geometry.Folded ());
      ])

let prefetch ?engine ?supervisor ~node ~prefetches () =
  build ?engine ?supervisor ~node (fun make ->
      List.map
        (fun n ->
          ( Printf.sprintf "prefetch %dn (core %s)" n
              (Vdram_units.Si.format_eng ~unit_symbol:"Hz"
                 ((Vdram_tech.Roadmap.generation node)
                    .Vdram_tech.Roadmap.datarate
                 /. float_of_int n)),
            make ~prefetch:n () ))
        prefetches)

let subarray_height ?engine ?supervisor ~node ~bits () =
  build ?engine ?supervisor ~node (fun make ->
      List.map
        (fun n ->
          (Printf.sprintf "%d cells per local wordline" n, make ~bits_per_lwl:n ()))
        bits)

let pp_point ppf p =
  Format.fprintf ppf
    "%-32s %8.1f mW %8.1f pJ/bit  act %6.0f pJ  die %5.1f mm^2 (eff %4.1f%%)"
    p.label (p.power *. 1e3)
    (p.energy_per_bit *. 1e12)
    (p.activate_energy *. 1e12)
    (p.die_area *. 1e6)
    (100.0 *. p.array_efficiency)

let pp ppf points =
  Format.fprintf ppf "@[<v>";
  List.iter (fun p -> Format.fprintf ppf "%a@," pp_point p) points;
  Format.fprintf ppf "@]"
