(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation.  Timing lives in the benchmark ledger
   (bench/ledger), whose per-layer probe times the same public calls.

   Sections:
     table1   - Table I   description parameter inventory
     table2   - Table II  disruptive technology changes
     fig5/6/7 - scaling factor curves
     fig8     - model vs datasheet, 1G DDR2
     fig9     - model vs datasheet, 1G DDR3
     fig10    - power-change Pareto (sensitivity tornado)
     table3   - top-10 sensitivity ranking, three devices
     fig11    - voltage trends
     fig12    - data rate and row timing trends
     fig13    - die area and energy-per-bit trends
     section5 - power-reduction scheme comparison
     section5_sim - controller policy study on the simulator *)

module Node = Vdram_tech.Node
module Params = Vdram_tech.Params
module Scaling = Vdram_tech.Scaling
module Disruptive = Vdram_tech.Disruptive
module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model
module Spec = Vdram_core.Spec
module Devices = Vdram_configs.Devices
module Compare = Vdram_datasheets.Compare
module Idd = Vdram_datasheets.Idd
module Sensitivity = Vdram_analysis.Sensitivity
module Trends = Vdram_analysis.Trends
module Engine = Vdram_engine.Engine

(* One shared engine for every regeneration below: repeated devices hit
   the stage caches, and batches fan out on the domain pool. *)
let engine = Engine.create ()

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table I: DRAM description parameters";
  Printf.printf "technology parameters: %d (paper: 39)\n" Params.count;
  List.iteri
    (fun i (name, _, _) -> Printf.printf "  T%02d %s\n" (i + 1) name)
    Params.fields;
  Printf.printf "  T39 bits accessed per column select line\n";
  Printf.printf
    "plus specification, voltages, physical and signaling floorplan and \
     logic-block groups (see lib/dsl grammar)\n"

let table2 () =
  header "Table II: disruptive DRAM technology changes";
  List.iter
    (fun d -> Format.printf "  %a@." Disruptive.pp d)
    Disruptive.all

let scaling_figure title families =
  header title;
  Printf.printf "%-34s" "node";
  List.iter (fun n -> Printf.printf "%7s" (Node.name n)) Node.all;
  print_newline ();
  List.iter
    (fun (fam, name) ->
      Printf.printf "%-34s" name;
      List.iter
        (fun n -> Printf.printf "%7.3f" (Scaling.factor fam n))
        Node.all;
      print_newline ())
    families

let fig5 () =
  scaling_figure "Figure 5: scaling of technology-related parameters"
    [ (Scaling.F_feature, "minimum feature size (f-shrink)");
      (Scaling.F_tox, "gate oxide thickness");
      (Scaling.F_lmin_logic, "minimum gate length logic");
      (Scaling.F_junction, "junction capacitance");
      (Scaling.F_cell_transistor, "access transistor W/L") ]

let fig6 () =
  scaling_figure "Figure 6: scaling of miscellaneous technology parameters"
    [ (Scaling.F_feature, "minimum feature size (f-shrink)");
      (Scaling.F_c_bitline, "bitline capacitance");
      (Scaling.F_c_cell, "cell capacitance");
      (Scaling.F_wire_cap, "specific wire capacitance");
      (Scaling.F_logic_width, "average logic device width");
      (Scaling.F_stripe_width, "SA / LWD stripe width") ]

let fig7 () =
  scaling_figure "Figure 7: scaling of core device width and length"
    [ (Scaling.F_feature, "minimum feature size (f-shrink)");
      (Scaling.F_core_device, "SA / row circuit device width");
      (Scaling.F_lmin_logic, "SA device length") ]

let verification title rows =
  header title;
  Printf.printf "%-15s %23s  %s\n" "point" "datasheet (mA)" "model (mA)";
  List.iter
    (fun (r : Compare.row) ->
      Printf.printf "%-15s %8.0f .. %5.0f (m %4.0f)"
        (Idd.label r.Compare.point)
        (Idd.min_ma r.Compare.point)
        (Idd.max_ma r.Compare.point)
        (Idd.mean_ma r.Compare.point);
      List.iter
        (fun (node, ma) ->
          let tag =
            if Compare.within_band r.Compare.point ma then "" else "*"
          in
          Printf.printf "  %s:%6.1f%s" node ma tag)
        r.Compare.model_ma;
      print_newline ())
    rows;
  Printf.printf "(* = outside the vendor band +-30%%)\n"

let fig8 () = verification "Figure 8: model vs datasheet, 1G DDR2" (Compare.fig8 ())

let fig9 () = verification "Figure 9: model vs datasheet, 1G DDR3" (Compare.fig9 ())

let datasheet_method () =
  header "Datasheet-method cross-check (paper reference [20])";
  let cfg = Devices.ddr3_2g in
  let spec = cfg.Config.spec in
  Printf.printf "%-14s %12s %12s %8s\n" "pattern" "direct mW"
    "method mW" "delta";
  List.iter
    (fun p ->
      let direct, via_method =
        Vdram_datasheets.Micron_method.cross_check cfg p
      in
      Printf.printf "%-14s %12.1f %12.1f %+7.1f%%\n" p.Pattern.name
        (direct *. 1e3) (via_method *. 1e3)
        (100.0 *. (via_method -. direct) /. direct))
    [ Pattern.idle; Pattern.idd0 spec; Pattern.idd4r spec;
      Pattern.idd4w spec; Pattern.idd7_mixed spec; Pattern.paper_example ];
  Printf.printf
    "(the datasheet methodology applied to the model's own Idd set \
     reproduces the direct computation)\n"

let vendor_spread () =
  header "Vendor spread via Monte-Carlo parameter corners";
  let cfg = Devices.ddr3_1g ~node:Node.N65 () in
  List.iter
    (fun spread ->
      let d =
        Vdram_analysis.Corners.run ~engine ~samples:150 ~spread ~seed:11 cfg
      in
      Format.printf "  %a@." Vdram_analysis.Corners.pp d)
    [ 0.05; 0.10; 0.15 ];
  Printf.printf
    "(the paper attributes the Fig 8/9 datasheet spread to exactly such      technology and implementation differences)\n"

let refresh_study () =
  header "Refresh-interval study (Emma et al., cited in Section V)";
  Format.printf "%a@?" Vdram_schemes.Refresh_study.pp
    (Vdram_schemes.Refresh_study.sweep Devices.ddr3_2g
       ~scales:[ 0.25; 0.5; 1.0; 2.0; 4.0 ])

let fig10 () =
  header "Figure 10: power change under +-20% parameter variation";
  List.iter
    (fun cfg ->
      let s = Sensitivity.run ~engine cfg in
      Printf.printf "\n-- %s (nominal %.1f mW, %s) --\n" cfg.Config.name
        (s.Sensitivity.nominal_power *. 1e3)
        s.Sensitivity.pattern_name;
      List.iteri
        (fun i e ->
          if i < 15 then
            Printf.printf "  %-46s %+7.2f%%\n" e.Sensitivity.lens_name
              e.Sensitivity.span_percent)
        s.Sensitivity.entries)
    Devices.table3_devices

let fig10_chart () =
  header "Figure 10 (chart): tornado for 2G DDR3 55nm";
  let s = Sensitivity.run ~engine Devices.ddr3_2g in
  print_string
    (Vdram_plot.Chart.bars
       (List.map
          (fun e ->
            (e.Sensitivity.lens_name, e.Sensitivity.span_percent))
          (Sensitivity.top 12 s)))

let table3 () =
  header "Table III: top-10 sensitivity ranking";
  let tops =
    List.map
      (fun cfg -> (cfg.Config.name, Sensitivity.top 10 (Sensitivity.run ~engine cfg)))
      Devices.table3_devices
  in
  List.iter (fun (name, _) -> Printf.printf "%-38s" name) tops;
  print_newline ();
  for i = 0 to 9 do
    List.iter
      (fun (_, entries) ->
        match List.nth_opt entries i with
        | Some e ->
          Printf.printf "%2d %-35s" (i + 1)
            (if String.length e.Sensitivity.lens_name > 34 then
               String.sub e.Sensitivity.lens_name 0 34
             else e.Sensitivity.lens_name)
        | None -> Printf.printf "%-38s" "")
      tops;
    print_newline ()
  done

let trend_points = lazy (Trends.all ~engine ())

let fig11 () =
  header "Figure 11: voltage trends";
  let pts = Lazy.force trend_points in
  let volt get label =
    Vdram_plot.Chart.series ~label
      (List.map
         (fun (p : Trends.point) ->
           (float_of_int p.Trends.year, get p))
         pts)
  in
  print_string
    (Vdram_plot.Chart.line ~height:12 ~y_unit:"V"
       [ volt (fun p -> p.Trends.vdd) "Vdd";
         volt (fun p -> p.Trends.vint) "Vint";
         volt (fun p -> p.Trends.vbl) "Vbl";
         volt (fun p -> p.Trends.vpp) "Vpp" ]);
  Printf.printf "%-7s %-5s %5s %5s %5s %5s\n" "node" "std" "Vdd" "Vint"
    "Vbl" "Vpp";
  List.iter
    (fun (p : Trends.point) ->
      Printf.printf "%-7s %-5s %5.2f %5.2f %5.2f %5.2f\n"
        (Node.name p.Trends.node)
        (Node.standard_name p.Trends.standard)
        p.Trends.vdd p.Trends.vint p.Trends.vbl p.Trends.vpp)
    (Lazy.force trend_points)

let fig12 () =
  header "Figure 12: data rate and row timing trends";
  Printf.printf "%-7s %9s %9s %7s %7s\n" "node" "Mbps/pin" "core MHz"
    "tRC ns" "tRCD ns";
  List.iter
    (fun (p : Trends.point) ->
      Printf.printf "%-7s %9.0f %9.0f %7.0f %7.1f\n"
        (Node.name p.Trends.node)
        (p.Trends.datarate /. 1e6)
        (p.Trends.core_frequency /. 1e6)
        (p.Trends.trc *. 1e9) (p.Trends.trcd *. 1e9))
    (Lazy.force trend_points)

let fig13 () =
  header "Figure 13: die area and energy per bit";
  Printf.printf "%-7s %5s %9s %9s %12s %12s\n" "node" "year" "die mm2"
    "Mbit" "pJ/bit Idd4" "pJ/bit Idd7";
  List.iter
    (fun (p : Trends.point) ->
      Printf.printf "%-7s %5d %9.1f %9.0f %12.1f %12.1f\n"
        (Node.name p.Trends.node)
        p.Trends.year
        (p.Trends.die_area *. 1e6)
        (p.Trends.density_bits /. (2.0 ** 20.0))
        (p.Trends.energy_per_bit_idd4 *. 1e12)
        (p.Trends.energy_per_bit_idd7 *. 1e12))
    (Lazy.force trend_points);
  let pts = Lazy.force trend_points in
  let early =
    Trends.reduction_factor pts (fun n -> Node.index n <= Node.index Node.N44)
  and late =
    Trends.reduction_factor pts (fun n -> Node.index n >= Node.index Node.N44)
  in
  Printf.printf
    "\nenergy/bit reduction per generation: %.2fx (170->44nm, paper ~1.5x) \
     then %.2fx (44->16nm forecast, paper ~1.2x)\n"
    early late;
  print_newline ();
  print_string
    (Vdram_plot.Chart.line ~height:14 ~log_y:true ~y_unit:"pJ/bit (log)"
       [ Vdram_plot.Chart.series ~label:"energy per bit, Idd7-like"
           (List.map
              (fun (p : Trends.point) ->
                ( float_of_int p.Trends.year,
                  p.Trends.energy_per_bit_idd7 *. 1e12 ))
              pts);
         Vdram_plot.Chart.series ~label:"energy per bit, Idd4 (row open)"
           (List.map
              (fun (p : Trends.point) ->
                ( float_of_int p.Trends.year,
                  p.Trends.energy_per_bit_idd4 *. 1e12 ))
              pts) ])

let section5 () =
  header "Section V: power-reduction scheme comparison (2G DDR3 55nm)";
  let results = Vdram_schemes.Evaluate.run_all ~engine Devices.ddr3_2g in
  Format.printf "%a@." Vdram_schemes.Evaluate.pp_table results;
  let combo =
    Vdram_schemes.Evaluate.run_combined ~engine Devices.ddr3_2g
      [ Vdram_schemes.Scheme.selective_bitline_activation;
        Vdram_schemes.Scheme.segmented_data_lines;
        Vdram_schemes.Scheme.low_voltage ]
  in
  Format.printf "@.combined (SBA + segmentation + low voltage):@.%a@."
    Vdram_schemes.Evaluate.pp_result combo;
  List.iter
    (fun r -> Format.printf "@.%a@." Vdram_schemes.Evaluate.pp_result r)
    results

let section5_sim () =
  header "Section V (system side): controller policy study (Hur et al.)";
  let cfg = Devices.ddr3_1g ~node:Node.N65 () in
  let spec = cfg.Config.spec in
  let base =
    Vdram_sim.Trace.uniform
      ~rng:(Vdram_sim.Trace.rng 42)
      ~requests:4000 ~arrival_gap:10 ~banks:spec.Spec.banks ~rows:1024
      ~columns:128 ~write_fraction:0.3
  in
  let gappy =
    Vdram_sim.Trace.idle_gaps ~rng:(Vdram_sim.Trace.rng 1) base ~burst:64
      ~gap:6000
  in
  Printf.printf "%-42s %9s %9s %10s\n" "policy" "mW" "pJ/bit" "lat ns";
  List.iter
    (fun run ->
      Printf.printf "%-42s %9.1f %9.1f %10.1f\n" run.Vdram_sim.Sim.policy
        (run.Vdram_sim.Sim.energy.Vdram_sim.Energy_model.average_power *. 1e3)
        (run.Vdram_sim.Sim.energy.Vdram_sim.Energy_model.energy_per_bit
        *. 1e12)
        (run.Vdram_sim.Sim.average_latency *. 1e9))
    (Vdram_sim.Sim.compare_policies cfg gappy
       [ (Vdram_sim.Controller.Open_page, Vdram_sim.Controller.No_power_down);
         (Vdram_sim.Controller.Closed_page, Vdram_sim.Controller.No_power_down);
         (Vdram_sim.Controller.Open_page,
          Vdram_sim.Controller.Precharge_power_down 50);
         (Vdram_sim.Controller.Open_page,
          Vdram_sim.Controller.Precharge_power_down 500) ])

let ablations () =
  header "Ablations: the design choices behind the commodity architecture";
  let node = Node.N55 in
  let show title pts =
    Printf.printf "\n-- %s --\n" title;
    Format.printf "%a@?" Vdram_analysis.Ablation.pp pts
  in
  show "activation granularity (motivates Section V)"
    (Vdram_analysis.Ablation.page_size ~engine ~node
       ~pages:[ 2048; 4096; 8192; 16384 ] ());
  show "cells per bitline (energy vs array efficiency)"
    (Vdram_analysis.Ablation.bitline_length ~engine ~node
       ~bits:[ 256; 512; 1024 ] ());
  show "open vs folded bitline (Table II's 6F2 step)"
    (Vdram_analysis.Ablation.bitline_style ~engine ~node ());
  show "prefetch at fixed pin rate (the low-cost-core choice)"
    (Vdram_analysis.Ablation.prefetch ~engine ~node ~prefetches:[ 2; 4; 8; 16 ] ());
  show "cells per local wordline (segmentation is an area choice)"
    (Vdram_analysis.Ablation.subarray_height ~engine ~node
       ~bits:[ 256; 512; 1024 ] ())

let architectures () =
  header "Architecture variants (Section II) and standby states";
  let node = Node.N55 in
  let devices =
    [ Devices.ddr3_2g;
      Vdram_configs.Variants.mobile ~node ();
      Vdram_configs.Variants.graphics ~node () ]
  in
  Printf.printf "%-28s %10s %10s %10s %12s\n" "device" "standby" "pwrdown"
    "selfref" "Idd4R pJ/bit";
  List.iter
    (fun cfg ->
      let epb =
        Option.value ~default:0.0
          (Model.energy_per_bit cfg (Pattern.idd4r cfg.Config.spec))
      in
      Printf.printf "%-28s %8.1f mW %7.1f mW %7.1f mW %10.1f\n"
        cfg.Config.name
        (Model.state_power cfg Model.Precharge_standby *. 1e3)
        (Model.state_power cfg Model.Power_down *. 1e3)
        (Model.state_power cfg Model.Self_refresh *. 1e3)
        (epb *. 1e12))
    devices;
  (* Where the power goes, per category: the paper's array-to-logic
     shift, old device vs future device. *)
  Printf.printf "\npower by category (Idd7-like pattern):\n";
  let reports =
    Engine.map_jobs engine
      (fun cfg -> Engine.eval engine cfg (Pattern.idd7_mixed cfg.Config.spec))
      Devices.table3_devices
  in
  List.iter2
    (fun cfg r ->
      Printf.printf "%-24s" cfg.Config.name;
      List.iter
        (fun (c, w) ->
          Printf.printf "  %s %.0f%%"
            (Vdram_core.Report.category_name c)
            (100.0 *. w /. r.Vdram_core.Report.power))
        (Vdram_core.Report.by_category r);
      print_newline ())
    Devices.table3_devices reports

let system_view () =
  header "System view: device + link (the paper's excluded Vddq piece)";
  Printf.printf "%-6s %-18s %12s\n" "era" "termination" "link pJ/bit";
  List.iter
    (fun (std, rate) ->
      let t = Vdram_link.Termination.for_standard std in
      Printf.printf "%-6s %-18s %12.2f\n"
        (Node.standard_name std)
        (Vdram_link.Termination.scheme_name
           t.Vdram_link.Termination.scheme)
        (Vdram_link.Termination.energy_per_bit t ~bitrate:rate *. 1e12))
    [ (Node.Sdr, 166e6); (Node.Ddr, 400e6); (Node.Ddr2, 800e6);
      (Node.Ddr3, 1333e6); (Node.Ddr4, 2667e6); (Node.Ddr5, 5333e6) ];
  Printf.printf "\n8 GB DDR3-1333 DIMM at 50%% utilization:\n";
  List.iter
    (fun r -> Format.printf "  %a@." Vdram_link.Dimm.pp_result r)
    (Vdram_link.Dimm.compare_widths ~node:Node.N55
       ~capacity_bits:(64.0 *. (2.0 ** 30.0))
       [ 4; 8; 16 ])

let () =
  table1 ();
  table2 ();
  fig5 ();
  fig6 ();
  fig7 ();
  fig8 ();
  fig9 ();
  fig10 ();
  fig10_chart ();
  table3 ();
  fig11 ();
  fig12 ();
  fig13 ();
  section5 ();
  section5_sim ();
  datasheet_method ();
  vendor_spread ();
  refresh_study ();
  ablations ();
  architectures ();
  system_view ();
  header "Engine cache counters (whole run)";
  Format.printf "%a@." Engine.pp_stats (Engine.stats engine);
  print_newline ()
