(* Generation trends: voltages, timings, die area, energy per bit. *)

module Node = Vdram_tech.Node
module Roadmap = Vdram_tech.Roadmap
module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Spec = Vdram_core.Spec
module Domains = Vdram_circuits.Domains
module Engine = Vdram_engine.Engine
module Supervise = Vdram_engine.Supervise

type point = {
  node : Node.t;
  year : int;
  standard : Node.standard;
  vdd : float;
  vint : float;
  vbl : float;
  vpp : float;
  datarate : float;
  core_frequency : float;
  trc : float;
  trcd : float;
  die_area : float;
  density_bits : float;
  energy_per_bit_idd4 : float;
  energy_per_bit_idd7 : float;
}

let point ?engine node =
  let engine =
    match engine with Some e -> e | None -> Engine.serial ()
  in
  let cfg = Config.commodity ~node () in
  let spec = cfg.Config.spec in
  let d = cfg.Config.domains in
  let epb pattern =
    match Engine.energy_per_bit engine cfg pattern with
    | Some e -> e
    | None -> assert false
  in
  {
    node;
    year = Node.year node;
    standard = Node.standard node;
    vdd = d.Domains.vdd;
    vint = d.Domains.vint;
    vbl = d.Domains.vbl;
    vpp = d.Domains.vpp;
    datarate = spec.Spec.datarate;
    core_frequency = Spec.core_clock spec;
    trc = spec.Spec.trc;
    trcd = spec.Spec.trcd;
    die_area = (Engine.geometry engine cfg).Engine.die_area;
    density_bits = spec.Spec.density_bits;
    energy_per_bit_idd4 = epb (Pattern.idd4r spec);
    energy_per_bit_idd7 = epb (Pattern.idd7_mixed spec);
  }

let point_check p =
  let finite =
    List.for_all Float.is_finite
      [
        p.vdd; p.vint; p.vbl; p.vpp; p.datarate; p.core_frequency; p.trc;
        p.trcd; p.die_area; p.density_bits; p.energy_per_bit_idd4;
        p.energy_per_bit_idd7;
      ]
  in
  if finite then None
  else Some (Printf.sprintf "non-finite trend point at %s" (Node.name p.node))

(* A generation whose evaluation fails under supervision is dropped
   from the trend line (failure recorded on the supervisor).  No delta
   base is offered on this batch: successive generations differ in
   nearly every technology field, so a cross-generation splice would
   dirty every circuit group and degrade to the full extraction
   anyway. *)
let all ?engine ?supervisor () =
  let engine =
    match engine with Some e -> e | None -> Engine.serial ()
  in
  Supervise.map_jobs ?supervisor engine ~check:point_check
    (fun node -> point ~engine node)
    Node.all
  |> List.filter_map (function Supervise.Done p -> Some p | _ -> None)

let category_shares ?engine ?supervisor () =
  let engine =
    match engine with Some e -> e | None -> Engine.serial ()
  in
  let check (node, shares) =
    if List.for_all (fun (_, s) -> Float.is_finite s) shares then None
    else Some (Printf.sprintf "non-finite share at %s" (Node.name node))
  in
  Supervise.map_jobs ?supervisor engine ~check
    (fun node ->
      let cfg = Config.commodity ~node () in
      let r = Engine.eval engine cfg (Pattern.idd7_mixed cfg.Config.spec) in
      let shares =
        List.map
          (fun (c, w) -> (c, w /. r.Vdram_core.Report.power))
          (Vdram_core.Report.by_category r)
      in
      (node, shares))
    Node.all
  |> List.filter_map (function Supervise.Done x -> Some x | _ -> None)

let reduction_factor points select =
  let selected = List.filter (fun p -> select p.node) points in
  match selected with
  | [] | [ _ ] -> 1.0
  | first :: _ ->
    let last = List.nth selected (List.length selected - 1) in
    let generations = List.length selected - 1 in
    (first.energy_per_bit_idd7 /. last.energy_per_bit_idd7)
    ** (1.0 /. float_of_int generations)

let pp_point ppf p =
  Format.fprintf ppf
    "%-5s %d %-4s Vdd %.2f Vint %.2f Vbl %.2f Vpp %.2f | %4.0f Mbps core \
     %3.0f MHz tRC %2.0f ns | die %4.1f mm^2 %5.0f Mb | %7.1f pJ/bit idd4 \
     %7.1f pJ/bit idd7"
    (Node.name p.node) p.year
    (Node.standard_name p.standard)
    p.vdd p.vint p.vbl p.vpp (p.datarate /. 1e6)
    (p.core_frequency /. 1e6) (p.trc *. 1e9) (p.die_area *. 1e6)
    (p.density_bits /. (2.0 ** 20.0))
    (p.energy_per_bit_idd4 *. 1e12)
    (p.energy_per_bit_idd7 *. 1e12)
