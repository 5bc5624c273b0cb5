(* Full DRAM description and the commodity default builder. *)

module Node = Vdram_tech.Node
module Scaling = Vdram_tech.Scaling
module Roadmap = Vdram_tech.Roadmap
module Params = Vdram_tech.Params
module Domains = Vdram_circuits.Domains
module Bus = Vdram_circuits.Bus
module Logic_block = Vdram_circuits.Logic_block
module Floorplan = Vdram_floorplan.Floorplan
module Array_geometry = Vdram_floorplan.Array_geometry

type t = {
  name : string;
  node : Node.t;
  spec : Spec.t;
  domains : Domains.t;
  tech : Params.t;
  floorplan : Floorplan.t;
  buses : Bus.t list;
  logic : Logic_block.t list;
  data_toggle : float;
  io_predriver_cap : float;
  io_receiver_cap : float;
  receiver_bias : float;
  input_receivers : int;
  activation_fraction : float;
}

let geometry t = t.floorplan.Floorplan.geometry

let page_bits t =
  let g = geometry t in
  g.Array_geometry.subarrays_along_wl * g.Array_geometry.bits_per_lwl

let activated_bits t =
  let g = geometry t in
  max g.Array_geometry.bits_per_lwl
    (int_of_float (t.activation_fraction *. float_of_int (page_bits t)))

let with_activation_fraction t f =
  if f <= 0.0 || f > 1.0 then
    invalid_arg "Config.with_activation_fraction: outside (0, 1]";
  { t with activation_fraction = f }

let bus t role =
  List.find_opt (fun (b : Bus.t) -> b.Bus.role = role) t.buses

let standard_complexity = function
  | Node.Sdr -> 1.0
  | Node.Ddr -> 1.4
  | Node.Ddr2 -> 2.0
  | Node.Ddr3 -> 3.0
  | Node.Ddr4 -> 5.0
  | Node.Ddr5 -> 8.5

let default_logic_blocks ~node ~(spec : Spec.t) =
  let standard = Node.standard node in
  let cx = standard_complexity standard in
  let w = Scaling.logic_gate_width node in
  let wiring_density = Float.min 0.9 (0.3 +. (0.07 *. cx)) in
  let block ?transistors_per_gate ?toggle ~name ~gates ~trigger () =
    Logic_block.v ?transistors_per_gate ?toggle ~w_nmos:w ~w_pmos:w
      ~wiring_density ~name ~gates ~trigger ()
  in
  let address_wires =
    spec.Spec.row_bits + spec.Spec.col_bits + spec.Spec.bank_bits
    + spec.Spec.misc_control
  in
  let serdes_gates =
    (* In floats: the integer product of two counts near 2^62 wraps. *)
    200.0 *. float_of_int spec.Spec.io_width *. float_of_int spec.Spec.prefetch
  in
  let dll =
    match standard with
    | Node.Sdr -> []
    | _ ->
      [ block ~name:"DLL / clock synchronisation" ~gates:(3500.0 *. cx)
          ~toggle:1.0 ~trigger:Logic_block.Always () ]
  in
  [
    block ~name:"central control logic" ~gates:(6000.0 *. cx) ~toggle:0.15
      ~trigger:Logic_block.Always ();
    block ~name:"clock distribution" ~gates:(1800.0 *. cx) ~toggle:1.0
      ~trigger:Logic_block.Always ();
    block ~name:"command/address input"
      ~gates:(60.0 *. float_of_int address_wires) ~toggle:0.25
      ~trigger:Logic_block.Always ();
    block ~name:"row command logic" ~gates:(55000.0 *. cx) ~toggle:1.0
      ~trigger:(Logic_block.On_operation [ `Activate; `Precharge ]) ();
    block ~name:"column command logic" ~gates:(20000.0 *. cx) ~toggle:1.0
      ~trigger:(Logic_block.On_operation [ `Read; `Write ]) ();
    block ~name:"serializer/deserializer" ~gates:serdes_gates ~toggle:1.0
      ~trigger:(Logic_block.On_operation [ `Read; `Write ]) ();
  ]
  @ dll

let default_buses ~floorplan ~node ~(spec : Spec.t) =
  let fp = floorplan in
  let cc = Floorplan.center_cell fp in
  let xc, yc = Floorplan.center fp cc in
  let banks = Floorplan.bank_cells fp in
  let nbanks = float_of_int (List.length banks) in
  let mean f =
    List.fold_left (fun acc b -> acc +. f (Floorplan.center fp b)) 0.0 banks
    /. nbanks
  in
  (* Data and address buses are shared spines along the center stripe
     (Figure 1): a transfer toggles the wire from the pads to the die
     edge, so the spine half-width is the effective segment length. *)
  let horiz = Floorplan.die_width fp /. 2.0 in
  let vert = mean (fun (_, y) -> Float.abs (y -. yc)) in
  ignore xc;
  let block_h = Array_geometry.block_height fp.Floorplan.geometry in
  (* The vertical run stops at the bank edge where the master array
     data lines take over. *)
  let vert_to_edge = Float.max 0.0 (vert -. (block_h /. 2.0)) in
  (* Re-driver widths follow the paper's signaling example (9.6 / 19.2
     um at its node), scaled with the core devices. *)
  let dev = Scaling.factor Scaling.F_core_device node in
  let buffer = (9.6e-6 *. dev, 19.2e-6 *. dev) in
  let small_buffer = (2.4e-6 *. dev, 4.8e-6 *. dev) in
  let seg = Bus.segment in
  let data_segments ~prefix =
    [
      seg
        ~name:(prefix ^ " pad interface")
        ~length:(0.25 *. Floorplan.inside_length fp cc ~frac:1.0 ~dir:`H)
        ~buffer ~mux:spec.Spec.prefetch ();
      seg ~name:(prefix ^ " center stripe run") ~length:horiz ~buffer ();
      seg ~name:(prefix ^ " column stripe run") ~length:vert_to_edge
        ~buffer:small_buffer ();
    ]
  in
  let address_segments =
    [
      seg ~name:"address center run" ~length:horiz ~buffer:small_buffer
        ~toggle:0.5 ();
      seg ~name:"address bank run" ~length:vert_to_edge ~toggle:0.5 ();
    ]
  in
  [
    Bus.v ~name:"write data" ~role:Bus.Write_data ~wires:spec.Spec.io_width
      (data_segments ~prefix:"write");
    Bus.v ~name:"read data" ~role:Bus.Read_data ~wires:spec.Spec.io_width
      (data_segments ~prefix:"read");
    Bus.v ~name:"row address" ~role:Bus.Row_address ~wires:spec.Spec.row_bits
      address_segments;
    Bus.v ~name:"column address" ~role:Bus.Column_address
      ~wires:spec.Spec.col_bits address_segments;
    Bus.v ~name:"bank address" ~role:Bus.Bank_address
      ~wires:(max 1 spec.Spec.bank_bits)
      [ seg ~name:"bank address center run" ~length:horiz ~toggle:0.5 () ];
    Bus.v ~name:"command" ~role:Bus.Command ~wires:spec.Spec.misc_control
      [
        seg ~name:"command center run" ~length:horiz ~buffer:small_buffer
          ~toggle:0.5 ();
      ];
    Bus.v ~name:"clock" ~role:Bus.Clock ~wires:spec.Spec.clock_wires
      [
        seg ~name:"clock trunk" ~length:(Floorplan.die_width fp /. 2.0)
          ~buffer ();
        seg ~name:"clock tree"
          ~length:(Floorplan.die_height fp /. 4.0)
          ~buffer:small_buffer ();
      ];
  ]

let log2i n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
  go 0 n

let representative_node = function
  | Node.Sdr -> Node.N170
  | Node.Ddr -> Node.N110
  | Node.Ddr2 -> Node.N75
  | Node.Ddr3 -> Node.N55
  | Node.Ddr4 -> Node.N31
  | Node.Ddr5 -> Node.N18

let rows_per_bank ~density_bits ~io_width ~banks ~page_bits =
  if io_width < 1 || page_bits / io_width < 2 then
    Error
      ( `Io_width,
        Printf.sprintf "bad io width %d: must be from 1 to half the %d-bit page"
          io_width page_bits )
  else
    let rows = density_bits /. float_of_int (banks * page_bits) in
    if rows >= 2.0 && rows < 0x1p62 then Ok rows
    else
      Error
        ( `Density,
          Printf.sprintf "bad density %g Mbit: %g rows per bank (want 2 to 2^62)"
            (density_bits /. 1048576.0) rows )

(* The specification group of [commodity], on its own: the roadmap
   sweeps of `vdram check` and `vdram advise` need only this. *)
let commodity_spec ?standard ?density_bits ?io_width ?datarate ?banks
    ?page_bits ?prefetch ~node () =
  let g = Roadmap.generation node in
  let standard = Option.value ~default:(Node.standard node) standard in
  (* Interface-bound properties come from the standard's representative
     generation; the node only drives technology, geometry and internal
     voltage headroom.  A 1 Gb DDR2 die shrunk to 65 nm keeps the DDR2
     interface and its 1.8 V supply. *)
  let gi = Roadmap.generation (representative_node standard) in
  let native = standard = Node.standard node in
  (* Density, data rate and timings track the node; bank count, page
     size, prefetch and voltages track the interface standard. *)
  let density_bits =
    Option.value
      ~default:
        (if native then g.Roadmap.density_bits else gi.Roadmap.density_bits)
      density_bits
  in
  let io_width = Option.value ~default:gi.Roadmap.io_width io_width in
  let datarate =
    Option.value
      ~default:(if native then g.Roadmap.datarate else gi.Roadmap.datarate)
      datarate
  in
  let banks = Option.value ~default:gi.Roadmap.banks banks in
  let page_bits = Option.value ~default:gi.Roadmap.page_bits page_bits in
  let control_clock =
    match standard with Node.Sdr -> datarate | _ -> datarate /. 2.0
  in
  let rows_per_bank =
    match rows_per_bank ~density_bits ~io_width ~banks ~page_bits with
    | Ok rows -> rows
    | Error (_, msg) -> invalid_arg msg
  in
  Spec.v ~io_width ~datarate ~control_clock
    ~bank_bits:(log2i banks)
    ~row_bits:(log2i (int_of_float rows_per_bank))
    ~col_bits:(log2i (page_bits / io_width))
    ~prefetch:(Option.value ~default:gi.Roadmap.prefetch prefetch)
    ~burst_length:
      (max 4 (Option.value ~default:gi.Roadmap.burst_length prefetch))
    ~banks ~density_bits
    ~trc:(if native then g.Roadmap.trc else Float.max g.Roadmap.trc gi.Roadmap.trc)
    ~trcd:(if native then g.Roadmap.trcd else Float.max g.Roadmap.trcd gi.Roadmap.trcd)
    ~trp:(if native then g.Roadmap.trp else Float.max g.Roadmap.trp gi.Roadmap.trp)
    ()

let generation_spec (g : Roadmap.t) = commodity_spec ~node:g.Roadmap.node ()

let commodity ?name ?standard ?density_bits ?io_width ?datarate ?banks
    ?page_bits ?bits_per_bitline ?bits_per_lwl ?style ?prefetch
    ?(data_toggle = 0.5) ~node () =
  let spec =
    commodity_spec ?standard ?density_bits ?io_width ?datarate ?banks
      ?page_bits ?prefetch ~node ()
  in
  let g = Roadmap.generation node in
  let standard = Option.value ~default:(Node.standard node) standard in
  let gi = Roadmap.generation (representative_node standard) in
  let page_bits = Option.value ~default:gi.Roadmap.page_bits page_bits in
  let { Spec.density_bits; io_width; datarate; banks; _ } = spec in
  let f = Node.feature_size node in
  (* A folded architecture implies the 8F2 cell, an open one 6F2 or
     denser; an explicit style override carries its cell factor. *)
  let style, cell_factor =
    match style with
    | Some Array_geometry.Folded -> (Array_geometry.Folded, 8.0)
    | Some Array_geometry.Open ->
      (Array_geometry.Open, Float.min 6.0 g.Roadmap.cell_factor)
    | None ->
      ( (if g.Roadmap.cell_factor >= 8.0 then Array_geometry.Folded
         else Array_geometry.Open),
        g.Roadmap.cell_factor )
  in
  (* Wordline pitch: cell_factor / 2 fits pitch product to the cell
     area with a 2F bitline pitch. *)
  let geometry =
    Array_geometry.derive ~style ~csl_blocks:1
      ~bank_bits:(density_bits /. float_of_int banks)
      ~page_bits
      ~bits_per_bitline:
        (Option.value ~default:g.Roadmap.bits_per_bitline bits_per_bitline)
      ~bits_per_lwl:
        (Option.value ~default:g.Roadmap.bits_per_lwl bits_per_lwl)
      ~wl_pitch:(cell_factor /. 2.0 *. f)
      ~bl_pitch:(2.0 *. f)
      ~sa_stripe:(Scaling.sa_stripe_width node)
      ~lwd_stripe:(Scaling.lwd_stripe_width node)
      ()
  in
  let stripe_scale = Scaling.factor Scaling.F_stripe_width node in
  let floorplan =
    Floorplan.commodity ~geometry ~banks
      ~row_logic:(200e-6 *. stripe_scale)
      ~column_logic:(200e-6 *. stripe_scale)
      ~center_stripe:
        (530e-6 *. stripe_scale *. sqrt (standard_complexity standard))
  in
  let domains =
    (* External supply fixed by the standard; internal rails take the
       lower of the standard's and the node's roadmap values (a shrunk
       die profits from the newer technology's headroom). *)
    Domains.v ~vdd:gi.Roadmap.vdd
      ~vint:(Float.min gi.Roadmap.vint g.Roadmap.vint)
      ~vbl:(Float.min gi.Roadmap.vbl g.Roadmap.vbl)
      ~vpp:(Float.min gi.Roadmap.vpp g.Roadmap.vpp)
      ()
  in
  let tech = Scaling.params_at node in
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "%.0fM %s x%d-%.0f (%s)"
        (density_bits /. (2.0 ** 20.0))
        (Node.standard_name standard)
        io_width (datarate /. 1e6) (Node.name node)
  in
  {
    name;
    node;
    spec;
    domains;
    tech;
    floorplan;
    buses = default_buses ~floorplan ~node ~spec;
    logic = default_logic_blocks ~node ~spec;
    data_toggle;
    io_predriver_cap = 5.0e-12 *. Scaling.factor Scaling.F_wire_cap node;
    io_receiver_cap = 2.5e-12 *. Scaling.factor Scaling.F_wire_cap node;
    receiver_bias =
      (match standard with
       | Node.Sdr | Node.Ddr -> 0.10e-3
       | Node.Ddr2 -> 0.50e-3
       | Node.Ddr3 -> 0.45e-3
       | Node.Ddr4 -> 0.35e-3
       | Node.Ddr5 -> 0.30e-3);
    input_receivers =
      spec.Spec.row_bits + spec.Spec.bank_bits + spec.Spec.misc_control + 2;
    activation_fraction = 1.0;
  }

let of_generation (g : Roadmap.t) = commodity ~node:g.Roadmap.node ()

let with_tech t tech = { t with tech }
let with_domains t domains = { t with domains }
let with_spec t spec = { t with spec }
let map_logic t f = { t with logic = List.map f t.logic }
let map_buses t f = { t with buses = List.map f t.buses }
let with_data_toggle t data_toggle = { t with data_toggle }

let pp ppf t =
  Format.fprintf ppf "@[<v>%s@,%a@,%a@,%a@]" t.name Spec.pp t.spec
    Domains.pp t.domains Floorplan.pp t.floorplan
