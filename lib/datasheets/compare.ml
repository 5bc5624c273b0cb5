(* Model vs datasheet comparison. *)

module Node = Vdram_tech.Node
module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model
module Parts = Vdram_configs.Parts

type row = {
  point : Idd.point;
  model_ma : (string * float) list;
}

let device_for ~(family : Idd.family) ~node (p : Idd.point) =
  let datarate = float_of_int p.Idd.datarate_mbps *. 1e6 in
  match (family.Idd.standard, family.Idd.name) with
  | Node.Ddr2, _ -> Parts.ddr2_1g ~io_width:p.Idd.io_width ~datarate ~node ()
  | Node.Ddr3, "2G DDR3" ->
    Vdram_core.Config.commodity ~standard:Node.Ddr3 ~node
      ~density_bits:(2048.0 *. (2.0 ** 20.0))
      ~io_width:p.Idd.io_width ~datarate ~banks:8 ()
  | Node.Ddr3, _ -> Parts.ddr3_1g ~io_width:p.Idd.io_width ~datarate ~node ()
  | _ -> invalid_arg "Compare.device_for: only DDR2 and DDR3 families"

let model_current ~family ~node p =
  let cfg = device_for ~family ~node p in
  let spec = cfg.Config.spec in
  let pattern =
    match p.Idd.test with
    | Idd.Idd0 -> Pattern.idd0 spec
    | Idd.Idd4r -> Pattern.idd4r spec
    | Idd.Idd4w -> Pattern.idd4w spec
  in
  Model.idd cfg pattern *. 1e3

let rows ~family ~nodes =
  List.map
    (fun point ->
      {
        point;
        model_ma =
          List.map
            (fun node ->
              (Node.name node, model_current ~family ~node point))
            nodes;
      })
    family.Idd.points

let fig8 () = rows ~family:Idd.ddr2_1g ~nodes:[ Node.N75; Node.N65 ]

let fig9 () = rows ~family:Idd.ddr3_1g ~nodes:[ Node.N65; Node.N55 ]

let within_band ?(slack = 0.30) p model =
  model >= Idd.min_ma p *. (1.0 -. slack)
  && model <= Idd.max_ma p *. (1.0 +. slack)

let pp_row ppf r =
  Format.fprintf ppf "%-14s datasheet %5.0f..%5.0f mA (mean %5.0f)"
    (Idd.label r.point) (Idd.min_ma r.point) (Idd.max_ma r.point)
    (Idd.mean_ma r.point);
  List.iter
    (fun (node, ma) -> Format.fprintf ppf "  model@%s %6.1f" node ma)
    r.model_ma
