(* The abstract evaluator: the Figure 4 pipeline on interval-valued
   configurations.

   Every function here transcribes its concrete counterpart
   (Devices, Wordline, Sense_amp, Column, Bus, Logic_block,
   Operation, Model) operation for operation, in the same
   association order, over [Interval] instead of [float].  Soundness
   is then by induction: if each scalar a concrete evaluation reads
   lies inside the interval the box assigns it — which [Abox.field]
   guarantees — then every intermediate concrete float lies inside
   the mirrored interval, because each interval operation contains
   all rounded results of its concrete counterpart.  The per-stage
   qcheck property in the test suite exercises exactly this
   correspondence.

   Everything no lens moves — geometry, floorplan, bus wiring, spec,
   page size, trigger wiring — is a point interval read off the
   box's nominal configuration. *)

module I = Vdram_units.Interval
module Config = Vdram_core.Config
module Spec = Vdram_core.Spec
module Pattern = Vdram_core.Pattern
module Operation = Vdram_core.Operation
module Model = Vdram_core.Model
module Params = Vdram_tech.Params
module Devices = Vdram_tech.Devices
module Domains = Vdram_circuits.Domains
module Bus = Vdram_circuits.Bus
module Logic_block = Vdram_circuits.Logic_block
module G = Vdram_floorplan.Array_geometry

open I.O

type contribution = {
  label : string;
  domain : Domains.domain;
  energy : I.t;
}

type stages = {
  op_contributions : (Operation.kind * contribution list) list;
  op_energy : (Operation.kind * I.t) list;
  background : I.t;
  power : I.t;
  current : I.t;
  loop_time : float;
  bits_per_loop : float;
  energy_per_bit : I.t option;
}

(* Interval accessors over the box: technology parameter, voltage
   domain field, top-level configuration field, logic-block field. *)
type env = {
  box : Abox.t;
  p : (Params.t -> float) -> I.t;
  d : (Domains.t -> float) -> I.t;
  c : (Config.t -> float) -> I.t;
  blk : int -> (Logic_block.t -> float) -> I.t;
}

let env box =
  {
    box;
    p = Abox.tech box;
    d = Abox.domains box;
    c = Abox.field box;
    blk = Abox.logic box;
  }

(* ----- Devices ----------------------------------------------------- *)

let eps_ox = I.point Devices.eps_ox

let tox e = function
  | Devices.Logic -> e.p (fun p -> p.Params.tox_logic)
  | Devices.High_voltage -> e.p (fun p -> p.Params.tox_hv)
  | Devices.Cell -> e.p (fun p -> p.Params.tox_cell)

let cj e = function
  | Devices.Logic -> e.p (fun p -> p.Params.cj_logic)
  | Devices.High_voltage | Devices.Cell -> e.p (fun p -> p.Params.cj_hv)

let gate_cap ~tox ~w ~l = eps_ox / tox * w * l
let gate_cap_of e cls ~w ~l = gate_cap ~tox:(tox e cls) ~w ~l
let junction_cap_of e cls ~w = cj e cls * w

let device_cap e cls ~w ~l =
  gate_cap_of e cls ~w ~l + junction_cap_of e cls ~w

(* ----- Contribution ------------------------------------------------ *)

let event ~cap ~voltage = I.point 0.5 * cap * voltage * voltage
let events ~count ~cap ~voltage = count * event ~cap ~voltage

let efficiency e = function
  | Domains.Vdd -> I.one
  | Domains.Vint -> e.d (fun d -> d.Domains.eff_int)
  | Domains.Vbl -> e.d (fun d -> d.Domains.eff_bl)
  | Domains.Vpp -> e.d (fun d -> d.Domains.eff_pp)

let total_at_vdd e contributions =
  List.fold_left
    (fun acc c -> acc + (c.energy / efficiency e c.domain))
    I.zero contributions

(* ----- Wordline ---------------------------------------------------- *)

let lwd_gate_load e =
  gate_cap_of e Devices.High_voltage
    ~w:(e.p (fun p -> p.Params.w_lwd_n))
    ~l:(e.p (fun p -> p.Params.lmin_hv))
  + gate_cap_of e Devices.High_voltage
      ~w:(e.p (fun p -> p.Params.w_lwd_p))
      ~l:(e.p (fun p -> p.Params.lmin_hv))

let mwl_capacitance e ~geometry =
  let wire =
    e.p (fun p -> p.Params.c_wire_mwl)
    * I.point (G.master_wordline_length geometry)
  in
  let lwds = I.of_int (Stdlib.succ geometry.G.subarrays_along_wl) in
  let decoder_junctions =
    junction_cap_of e Devices.High_voltage
      ~w:(e.p (fun p -> p.Params.w_mwl_dec_n))
    + junction_cap_of e Devices.High_voltage
        ~w:(e.p (fun p -> p.Params.w_mwl_dec_p))
  in
  wire + (lwds * lwd_gate_load e) + decoder_junctions

let lwl_capacitance e ~geometry =
  let wire =
    e.p (fun p -> p.Params.c_wire_lwl) * I.point (G.lwl_length geometry)
  in
  let cells =
    I.of_int geometry.G.bits_per_lwl
    * gate_cap_of e Devices.Cell
        ~w:(e.p (fun p -> p.Params.w_cell))
        ~l:(e.p (fun p -> p.Params.l_cell))
  in
  let coupling =
    I.of_int geometry.G.bits_per_lwl
    * e.p (fun p -> p.Params.bl_wl_coupling)
    * e.p (fun p -> p.Params.c_bitline)
    / I.of_int geometry.G.bits_per_bitline
  in
  let restore_junction =
    junction_cap_of e Devices.High_voltage
      ~w:(e.p (fun p -> p.Params.w_lwd_restore))
  in
  wire + cells + coupling + restore_junction

let select_line_cap e =
  gate_cap_of e Devices.High_voltage
    ~w:(e.p (fun p -> p.Params.w_wlctl_load_n))
    ~l:(e.p (fun p -> p.Params.lmin_hv))
  + gate_cap_of e Devices.High_voltage
      ~w:(e.p (fun p -> p.Params.w_wlctl_load_p))
      ~l:(e.p (fun p -> p.Params.lmin_hv))
  + gate_cap_of e Devices.High_voltage
      ~w:(e.p (fun p -> p.Params.w_lwd_restore))
      ~l:(e.p (fun p -> p.Params.lmin_hv))

let predecode_energy e ~geometry =
  let decoder_gates =
    gate_cap_of e Devices.Logic
      ~w:(e.p (fun p -> p.Params.w_mwl_dec_n))
      ~l:(e.p (fun p -> p.Params.lmin_logic))
    + gate_cap_of e Devices.Logic
        ~w:(e.p (fun p -> p.Params.w_mwl_dec_p))
        ~l:(e.p (fun p -> p.Params.lmin_logic))
  in
  let line =
    (e.p (fun p -> p.Params.c_wire_signal)
     * I.point (G.madl_length geometry))
    + decoder_gates
  in
  events
    ~count:
      (e.p (fun p -> p.Params.mwl_predecode)
       * e.p (fun p -> p.Params.mwl_dec_activity)
       * I.point 2.0)
    ~cap:line
    ~voltage:(e.d (fun d -> d.Domains.vint))

let row_events e ~geometry ~page_bits =
  let n_lwl = I.of_int Stdlib.(page_bits / geometry.G.bits_per_lwl) in
  let vpp = e.d (fun d -> d.Domains.vpp) in
  let mwl = event ~cap:(mwl_capacitance e ~geometry) ~voltage:vpp in
  let lwl =
    events ~count:n_lwl ~cap:(lwl_capacitance e ~geometry) ~voltage:vpp
  in
  let select =
    events ~count:n_lwl ~cap:(select_line_cap e) ~voltage:vpp
  in
  (mwl, lwl, select)

let wordline_activate e ~geometry ~page_bits =
  let mwl, lwl, select = row_events e ~geometry ~page_bits in
  [
    { label = "row decode"; domain = Domains.Vint;
      energy = predecode_energy e ~geometry };
    { label = "master wordline"; domain = Domains.Vpp; energy = mwl };
    { label = "wordline select"; domain = Domains.Vpp; energy = select };
    { label = "local wordline"; domain = Domains.Vpp; energy = lwl };
  ]

let wordline_precharge e ~geometry ~page_bits =
  let mwl, lwl, select = row_events e ~geometry ~page_bits in
  [
    { label = "master wordline"; domain = Domains.Vpp; energy = mwl };
    { label = "wordline select"; domain = Domains.Vpp; energy = select };
    { label = "local wordline"; domain = Domains.Vpp; energy = lwl };
  ]

(* ----- Sense amplifier --------------------------------------------- *)

let bitline_device_load e (g : G.t) =
  let gate = gate_cap_of e Devices.Logic
  and junction = junction_cap_of e Devices.Logic in
  let sense =
    gate
      ~w:(e.p (fun p -> p.Params.w_sa_n))
      ~l:(e.p (fun p -> p.Params.l_sa_n))
    + gate
        ~w:(e.p (fun p -> p.Params.w_sa_p))
        ~l:(e.p (fun p -> p.Params.l_sa_p))
    + junction ~w:(e.p (fun p -> p.Params.w_sa_n))
    + junction ~w:(e.p (fun p -> p.Params.w_sa_p))
  in
  let eq_junction =
    junction_cap_of e Devices.High_voltage
      ~w:(e.p (fun p -> p.Params.w_sa_eq))
  in
  let switch_junction =
    junction ~w:(e.p (fun p -> p.Params.w_sa_bitswitch))
  in
  let mux_junction =
    match g.G.style with
    | G.Folded ->
      junction_cap_of e Devices.High_voltage
        ~w:(e.p (fun p -> p.Params.w_sa_mux))
    | G.Open -> I.zero
  in
  sense + eq_junction + switch_junction + mux_junction

let set_gate_cap e =
  gate_cap_of e Devices.Logic
    ~w:(e.p (fun p -> p.Params.w_sa_nset))
    ~l:(e.p (fun p -> p.Params.l_sa_nset))
  + gate_cap_of e Devices.Logic
      ~w:(e.p (fun p -> p.Params.w_sa_pset))
      ~l:(e.p (fun p -> p.Params.l_sa_pset))

let common_node_cap e =
  junction_cap_of e Devices.Logic ~w:(e.p (fun p -> p.Params.w_sa_n))
  + junction_cap_of e Devices.Logic ~w:(e.p (fun p -> p.Params.w_sa_p))
  + junction_cap_of e Devices.Logic ~w:(e.p (fun p -> p.Params.w_sa_nset))
  + junction_cap_of e Devices.Logic ~w:(e.p (fun p -> p.Params.w_sa_pset))

let equalize_gate_cap e =
  I.point 3.0
  * gate_cap_of e Devices.High_voltage
      ~w:(e.p (fun p -> p.Params.w_sa_eq))
      ~l:(e.p (fun p -> p.Params.l_sa_eq))

let mux_gate_cap e (g : G.t) =
  match g.G.style with
  | G.Folded ->
    I.point 2.0
    * gate_cap_of e Devices.High_voltage
        ~w:(e.p (fun p -> p.Params.w_sa_mux))
        ~l:(e.p (fun p -> p.Params.l_sa_mux))
  | G.Open -> I.zero

let sense_amp_activate e ~geometry ~page_bits =
  let n = I.of_int page_bits in
  let vbl = e.d (fun d -> d.Domains.vbl) in
  let vint = e.d (fun d -> d.Domains.vint) in
  let vpp = e.d (fun d -> d.Domains.vpp) in
  let half_vbl = vbl / I.point 2.0 in
  [
    { label = "bitline sensing"; domain = Domains.Vbl;
      energy =
        events ~count:n
          ~cap:(e.p (fun p -> p.Params.c_bitline) / I.point 2.0)
          ~voltage:vbl };
    { label = "cell restore"; domain = Domains.Vbl;
      energy =
        events ~count:n
          ~cap:(e.p (fun p -> p.Params.c_cell) / I.point 4.0)
          ~voltage:vbl };
    { label = "sense amplifier devices"; domain = Domains.Vbl;
      energy =
        events ~count:(I.point 2.0 * n)
          ~cap:(bitline_device_load e geometry) ~voltage:half_vbl };
    { label = "sense amplifier set"; domain = Domains.Vint;
      energy = events ~count:n ~cap:(set_gate_cap e) ~voltage:vint };
    { label = "sense amplifier set"; domain = Domains.Vbl;
      energy =
        events ~count:(I.point 2.0 * n) ~cap:(common_node_cap e)
          ~voltage:half_vbl };
    { label = "sense amplifier equalize control"; domain = Domains.Vpp;
      energy = events ~count:n ~cap:(equalize_gate_cap e) ~voltage:vpp };
    { label = "bitline multiplexer"; domain = Domains.Vpp;
      energy =
        events ~count:n ~cap:(mux_gate_cap e geometry) ~voltage:vpp };
  ]

let sense_amp_precharge e ~geometry ~page_bits =
  let n = I.of_int page_bits in
  let vint = e.d (fun d -> d.Domains.vint) in
  let vpp = e.d (fun d -> d.Domains.vpp) in
  [
    { label = "sense amplifier equalize control"; domain = Domains.Vpp;
      energy = events ~count:n ~cap:(equalize_gate_cap e) ~voltage:vpp };
    { label = "sense amplifier set"; domain = Domains.Vint;
      energy = events ~count:n ~cap:(set_gate_cap e) ~voltage:vint };
    { label = "bitline multiplexer"; domain = Domains.Vpp;
      energy =
        events ~count:n ~cap:(mux_gate_cap e geometry) ~voltage:vpp };
  ]

let sense_amp_write_back e ~bits =
  let vbl = e.d (fun d -> d.Domains.vbl) in
  let toggle = e.c (fun c -> c.Config.data_toggle) in
  let flips = toggle * I.of_int bits in
  [
    { label = "bitline overwrite"; domain = Domains.Vbl;
      energy =
        events ~count:(I.point 2.0 * flips)
          ~cap:(e.p (fun p -> p.Params.c_bitline))
          ~voltage:vbl };
    { label = "cell restore"; domain = Domains.Vbl;
      energy =
        events ~count:flips
          ~cap:(e.p (fun p -> p.Params.c_cell))
          ~voltage:vbl };
  ]

(* ----- Column path ------------------------------------------------- *)

let csl_capacitance e ~geometry =
  let wire =
    e.p (fun p -> p.Params.c_wire_signal)
    * I.point (G.csl_length geometry)
  in
  let stripes =
    I.of_int
      Stdlib.((geometry.G.subarrays_along_bl + 1) * geometry.G.csl_blocks)
  in
  let bits_per_csl =
    (Abox.base e.box).Config.tech.Params.bits_per_csl
  in
  let switch_gates =
    I.of_int bits_per_csl
    * gate_cap_of e Devices.Logic
        ~w:(e.p (fun p -> p.Params.w_sa_bitswitch))
        ~l:(e.p (fun p -> p.Params.l_sa_bitswitch))
  in
  wire + (stripes * switch_gates)

let secondary_sa_cap e =
  I.point 4.0
  * device_cap e Devices.Logic
      ~w:(e.p (fun p -> p.Params.w_sa_n))
      ~l:(e.p (fun p -> p.Params.l_sa_n))

let madl_pair_capacitance e ~geometry =
  (I.point 2.0
   * e.p (fun p -> p.Params.c_wire_signal)
   * I.point (G.madl_length geometry))
  + secondary_sa_cap e

let local_dq_pair_capacitance e ~geometry =
  I.point 2.0
  * e.p (fun p -> p.Params.c_wire_signal)
  * I.point (G.subarray_width geometry)

let column_decode_energy e ~geometry ~csl_fires =
  let decoder_gates =
    gate_cap_of e Devices.Logic
      ~w:(e.p (fun p -> p.Params.w_mwl_dec_n))
      ~l:(e.p (fun p -> p.Params.lmin_logic))
    + gate_cap_of e Devices.Logic
        ~w:(e.p (fun p -> p.Params.w_mwl_dec_p))
        ~l:(e.p (fun p -> p.Params.lmin_logic))
  in
  let line =
    (e.p (fun p -> p.Params.c_wire_signal)
     * I.point (G.master_wordline_length geometry))
    + decoder_gates
  in
  events
    ~count:
      (csl_fires
       * e.p (fun p -> p.Params.mwl_predecode)
       * e.p (fun p -> p.Params.mwl_dec_activity))
    ~cap:line
    ~voltage:(e.d (fun d -> d.Domains.vint))

let column_access e ~geometry ~bits ~write =
  let nbits = I.of_int bits in
  let bits_per_csl =
    (Abox.base e.box).Config.tech.Params.bits_per_csl
  in
  let csl_fires = nbits / I.of_int bits_per_csl in
  let vint = e.d (fun d -> d.Domains.vint) in
  let vbl = e.d (fun d -> d.Domains.vbl) in
  let base =
    [
      { label = "column decode"; domain = Domains.Vint;
        energy = column_decode_energy e ~geometry ~csl_fires };
      { label = "column select line"; domain = Domains.Vint;
        energy =
          events ~count:(I.point 2.0 * csl_fires)
            ~cap:(csl_capacitance e ~geometry) ~voltage:vint };
      { label = "local data lines"; domain = Domains.Vbl;
        energy =
          events ~count:nbits
            ~cap:(local_dq_pair_capacitance e ~geometry) ~voltage:vbl };
      { label = "master array data lines"; domain = Domains.Vint;
        energy =
          events ~count:(I.point 2.0 * nbits)
            ~cap:(madl_pair_capacitance e ~geometry) ~voltage:vint };
      { label = "secondary sense amplifier"; domain = Domains.Vint;
        energy =
          events ~count:nbits ~cap:(secondary_sa_cap e) ~voltage:vint };
    ]
  in
  if write then
    base
    @ [
        { label = "write drivers"; domain = Domains.Vint;
          energy =
            events ~count:nbits ~cap:(secondary_sa_cap e) ~voltage:vint };
      ]
  else base

(* ----- Buses and logic blocks -------------------------------------- *)

let segment_capacitance e (s : Bus.segment) =
  let wire = e.p (fun p -> p.Params.c_wire_signal) * I.point s.Bus.length in
  let buffer =
    match s.Bus.buffer with
    | None -> I.zero
    | Some (wn, wp) ->
      device_cap e Devices.Logic ~w:(I.point wn)
        ~l:(e.p (fun p -> p.Params.lmin_logic))
      + device_cap e Devices.Logic ~w:(I.point wp)
          ~l:(e.p (fun p -> p.Params.lmin_logic))
  in
  wire + buffer

let bus_energy_per_bit e (b : Bus.t) =
  let vint = e.d (fun d -> d.Domains.vint) in
  List.fold_left
    (fun acc s ->
      acc
      + I.point s.Bus.toggle
        * event ~cap:(segment_capacitance e s) ~voltage:vint)
    I.zero b.Bus.segments

let bus_energy_per_event e (b : Bus.t) =
  I.of_int b.Bus.wires * bus_energy_per_bit e b

let blk_w e i =
  (e.blk i (fun b -> b.Logic_block.w_nmos)
   + e.blk i (fun b -> b.Logic_block.w_pmos))
  / I.point 2.0

let logic_gate_area e i =
  e.blk i (fun b -> b.Logic_block.transistors_per_gate)
  * blk_w e i
  * e.p (fun p -> p.Params.lmin_logic)
  / e.blk i (fun b -> b.Logic_block.layout_density)

let logic_gate_capacitance e i =
  let w = blk_w e i in
  let device =
    e.blk i (fun b -> b.Logic_block.transistors_per_gate)
    * (gate_cap_of e Devices.Logic ~w
         ~l:(e.p (fun p -> p.Params.lmin_logic))
       + junction_cap_of e Devices.Logic ~w)
  in
  let wire_length =
    e.blk i (fun b -> b.Logic_block.wiring_density)
    * logic_gate_area e i
    / (I.point 4.0 * e.p (fun p -> p.Params.lmin_logic))
  in
  device + (e.p (fun p -> p.Params.c_wire_signal) * wire_length)

let logic_energy_per_fire e i =
  e.blk i (fun b -> b.Logic_block.gates)
  * e.blk i (fun b -> b.Logic_block.toggle)
  * event ~cap:(logic_gate_capacitance e i)
      ~voltage:(e.d (fun d -> d.Domains.vint))

(* ----- Operation assembly ------------------------------------------ *)

let to_trigger_op = function
  | Operation.Activate -> Some `Activate
  | Operation.Precharge -> Some `Precharge
  | Operation.Read -> Some `Read
  | Operation.Write -> Some `Write
  | Operation.Nop -> None

let logic_contributions e kind =
  let base = Abox.base e.box in
  let matches (b : Logic_block.t) =
    match (b.Logic_block.trigger, kind) with
    | Logic_block.Always, Operation.Nop -> true
    | Logic_block.Always, _ -> false
    | Logic_block.On_operation ops, k ->
      (match to_trigger_op k with
       | Some op -> List.mem op ops
       | None -> false)
  in
  List.mapi (fun i b -> (i, b)) base.Config.logic
  |> List.filter_map (fun (i, (b : Logic_block.t)) ->
    if matches b then
      Some
        { label = "logic: " ^ b.Logic_block.name;
          domain = Domains.Vint;
          energy = logic_energy_per_fire e i }
    else None)

let bus_event e role label =
  match Config.bus (Abox.base e.box) role with
  | None -> []
  | Some b ->
    [ { label; domain = Domains.Vint; energy = bus_energy_per_event e b } ]

let data_transfer e role label ~bits =
  match Config.bus (Abox.base e.box) role with
  | None -> []
  | Some b ->
    let per_bit = bus_energy_per_bit e b in
    [ { label; domain = Domains.Vint;
        energy = I.of_int bits * per_bit } ]

let dq_interface e ~bits ~write =
  let cap =
    if write then e.c (fun c -> c.Config.io_receiver_cap)
    else e.c (fun c -> c.Config.io_predriver_cap)
  in
  let label = if write then "DQ receivers" else "DQ pre-drivers" in
  [
    { label; domain = Domains.Vdd;
      energy =
        e.c (fun c -> c.Config.data_toggle)
        * events ~count:(I.of_int bits) ~cap
            ~voltage:(e.d (fun d -> d.Domains.vdd)) };
  ]

let contributions e kind =
  let base = Abox.base e.box in
  let geometry = Config.geometry base in
  let page = Config.activated_bits base in
  let bits = Spec.bits_per_column_command base.Config.spec in
  let logic = logic_contributions e kind in
  match kind with
  | Operation.Activate ->
    wordline_activate e ~geometry ~page_bits:page
    @ sense_amp_activate e ~geometry ~page_bits:page
    @ bus_event e Bus.Row_address "row address bus"
    @ bus_event e Bus.Bank_address "bank address bus"
    @ bus_event e Bus.Command "command bus"
    @ logic
  | Operation.Precharge ->
    wordline_precharge e ~geometry ~page_bits:page
    @ sense_amp_precharge e ~geometry ~page_bits:page
    @ bus_event e Bus.Bank_address "bank address bus"
    @ bus_event e Bus.Command "command bus"
    @ logic
  | Operation.Read ->
    column_access e ~geometry ~bits ~write:false
    @ data_transfer e Bus.Read_data "read data bus" ~bits
    @ dq_interface e ~bits ~write:false
    @ bus_event e Bus.Column_address "column address bus"
    @ bus_event e Bus.Bank_address "bank address bus"
    @ bus_event e Bus.Command "command bus"
    @ logic
  | Operation.Write ->
    column_access e ~geometry ~bits ~write:true
    @ sense_amp_write_back e ~bits
    @ data_transfer e Bus.Write_data "write data bus" ~bits
    @ dq_interface e ~bits ~write:true
    @ bus_event e Bus.Column_address "column address bus"
    @ bus_event e Bus.Bank_address "bank address bus"
    @ bus_event e Bus.Command "command bus"
    @ logic
  | Operation.Nop ->
    bus_event e Bus.Clock "clock distribution" @ logic

(* ----- Model stages ------------------------------------------------ *)

let receiver_bias_power e =
  let base = Abox.base e.box in
  I.of_int base.Config.input_receivers
  * e.c (fun c -> c.Config.receiver_bias)
  * e.d (fun d -> d.Domains.vdd)

(* The pattern mix: every stage after extraction, from per-operation
   energies.  [analyze] and [metric] share this one copy.  [energy] is
   asked for Nop (the background floor) and for each operation the
   pattern counts, once each; the extraction-stage lists are the
   caller's. *)
let mix e pattern energy ~op_contributions ~op_energy =
  let spec = (Abox.base e.box).Config.spec in
  let background =
    (energy Operation.Nop * I.point spec.Spec.control_clock)
    + (e.d (fun d -> d.Domains.i_constant) * e.d (fun d -> d.Domains.vdd))
    + receiver_bias_power e
  in
  let loop_time = Model.loop_time spec pattern in
  let op_power =
    List.fold_left
      (fun acc (kind, count) ->
        acc + (I.of_int count * energy kind / I.point loop_time))
      I.zero (Model.op_counts pattern)
  in
  let power = background + op_power in
  let current = power / e.d (fun d -> d.Domains.vdd) in
  let bits_per_loop = Model.bits_per_loop spec pattern in
  let energy_per_bit =
    if bits_per_loop > 0.0 then
      Some (power * I.point loop_time / I.point bits_per_loop)
    else None
  in
  {
    op_contributions;
    op_energy;
    background;
    power;
    current;
    loop_time;
    bits_per_loop;
    energy_per_bit;
  }

let analyze box pattern =
  let e = env box in
  let op_contributions =
    List.map (fun kind -> (kind, contributions e kind)) Operation.all
  in
  let op_energy =
    List.map
      (fun (kind, cs) -> (kind, total_at_vdd e cs))
      op_contributions
  in
  mix e pattern
    (fun kind -> List.assoc kind op_energy)
    ~op_contributions ~op_energy

type metric = Energy_per_bit | Power

let metric box pattern wanted =
  let e = env box in
  let s =
    mix e pattern
      (fun kind -> total_at_vdd e (contributions e kind))
      ~op_contributions:[] ~op_energy:[]
  in
  match wanted with
  | Power -> Some s.power
  | Energy_per_bit -> s.energy_per_bit
