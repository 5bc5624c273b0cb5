(* Parameter lenses over Config.t. *)

module Config = Vdram_core.Config
module Params = Vdram_tech.Params
module Domains = Vdram_circuits.Domains
module Logic_block = Vdram_circuits.Logic_block
module C = Vdram_circuits.Contribution

type group = Voltage | Technology | Logic | Interface

let group_name = function
  | Voltage -> "voltages"
  | Technology -> "technology"
  | Logic -> "logic"
  | Interface -> "interface"

(* Default certified scale-factor band per group, consumed by the
   abstract interpreter (`vdram check`) when the caller declares no
   explicit range: how far a lens is normally swept multiplicatively
   around its nominal value. *)
let default_range = function
  | Voltage -> (0.9, 1.1)
  | Technology -> (0.85, 1.15)
  | Logic -> (0.8, 1.25)
  | Interface -> (0.8, 1.2)

type t = {
  name : string;
  group : group;
  range : float * float;
  dirties : C.group list;
  get : Config.t -> float;
  set : Config.t -> float -> Config.t;
}

let scale lens f cfg = lens.set cfg (lens.get cfg *. f)

(* Which circuit groups a technology parameter can reach on some
   device.  Delta-extraction traces the read sets off the charge models
   and never reads this table; a test pins it to the traced sets, so a
   charge model growing a new parameter dependency fails there. *)
let technology_dirties =
  let w = C.Wordline and s = C.Sense_amp and c = C.Column in
  let b = C.Bus and l = C.Logic in
  [
    ("gate oxide thickness logic", [ w; s; c; b; l ]);
    ("gate oxide thickness high voltage", [ w; s ]);
    ("gate oxide thickness cell transistor", [ w ]);
    ("minimum gate length logic", [ w; c; b; l ]);
    ("junction capacitance logic", [ s; c; b; l ]);
    ("minimum gate length high voltage", [ w ]);
    ("junction capacitance high voltage", [ w; s ]);
    ("gate length cell transistor", [ w ]);
    ("gate width cell transistor", [ w ]);
    ("bitline capacitance", [ w; s ]);
    ("cell capacitance", [ s ]);
    ("bitline-wordline coupling share", [ w ]);
    ("specific wire capacitance master wordline", [ w ]);
    ("pre-decode ratio master wordline", [ w; c ]);
    ("width master wordline decoder NMOS", [ w; c ]);
    ("width master wordline decoder PMOS", [ w; c ]);
    ("switching activity master wordline decoder", [ w; c ]);
    ("width load NMOS wordline controller", [ w ]);
    ("width load PMOS wordline controller", [ w ]);
    ("width sub-wordline driver NMOS", [ w ]);
    ("width sub-wordline driver PMOS", [ w ]);
    ("width sub-wordline restore NMOS", [ w ]);
    ("specific wire capacitance sub-wordline", [ w ]);
    ("width sense-amplifier NMOS pair", [ s; c ]);
    ("length sense-amplifier NMOS pair", [ s; c ]);
    ("width sense-amplifier PMOS pair", [ s ]);
    ("length sense-amplifier PMOS pair", [ s ]);
    ("width sense-amplifier equalize", [ s ]);
    ("length sense-amplifier equalize", [ s ]);
    ("width sense-amplifier bit switch", [ s; c ]);
    ("length sense-amplifier bit switch", [ c ]);
    ("width sense-amplifier bitline multiplexer", [ s ]);
    ("length sense-amplifier bitline multiplexer", [ s ]);
    ("width sense-amplifier NMOS set device", [ s ]);
    ("length sense-amplifier NMOS set device", [ s ]);
    ("width sense-amplifier PMOS set device", [ s ]);
    ("length sense-amplifier PMOS set device", [ s ]);
    ("specific wire capacitance signaling", [ w; c; b; l ]);
  ]

let technology =
  List.map
    (fun (name, get, set) ->
      {
        name;
        group = Technology;
        range = default_range Technology;
        dirties =
          (match List.assoc_opt name technology_dirties with
          | Some groups -> groups
          | None -> C.groups (* unknown field: assume it reaches all *));
        get = (fun cfg -> get cfg.Config.tech);
        set = (fun cfg v -> Config.with_tech cfg (set cfg.Config.tech v));
      })
    Params.fields

let with_domains f cfg v =
  Config.with_domains cfg (f cfg.Config.domains v)

(* A changed voltage reaches every group whose traced read set holds
   it; the generator efficiencies and the constant current adder reach
   none — efficiencies only rescale the extraction's supply-energy
   terms (delta recomputes those without re-extracting) and the current
   adder is a mix-stage input read straight off the configuration. *)
let voltage_lens name dirties get set =
  { name; group = Voltage; range = default_range Voltage; dirties; get; set }

let voltages =
  [
    voltage_lens "external voltage Vdd" [ C.Interface ]
      (fun c -> c.Config.domains.Domains.vdd)
      (with_domains (fun d v -> { d with Domains.vdd = v }));
    voltage_lens "internal voltage Vint"
      [ C.Wordline; C.Sense_amp; C.Column; C.Bus; C.Logic ]
      (fun c -> c.Config.domains.Domains.vint)
      (with_domains (fun d v -> { d with Domains.vint = v }));
    voltage_lens "bitline voltage" [ C.Sense_amp; C.Column ]
      (fun c -> c.Config.domains.Domains.vbl)
      (with_domains (fun d v -> { d with Domains.vbl = v }));
    voltage_lens "wordline voltage Vpp" [ C.Wordline; C.Sense_amp ]
      (fun c -> c.Config.domains.Domains.vpp)
      (with_domains (fun d v -> { d with Domains.vpp = v }));
    voltage_lens "generator efficiency Vint" []
      (fun c -> c.Config.domains.Domains.eff_int)
      (with_domains (fun d v -> { d with Domains.eff_int = v }));
    voltage_lens "generator efficiency bitline voltage" []
      (fun c -> c.Config.domains.Domains.eff_bl)
      (with_domains (fun d v -> { d with Domains.eff_bl = v }));
    voltage_lens "generator efficiency wordline voltage" []
      (fun c -> c.Config.domains.Domains.eff_pp)
      (with_domains (fun d v -> { d with Domains.eff_pp = v }));
    voltage_lens "constant current adder" []
      (fun c -> c.Config.domains.Domains.i_constant)
      (with_domains (fun d v -> { d with Domains.i_constant = v }));
  ]

(* Aggregate logic lenses scale every block; get returns the scale
   relative to the current configuration (1.0). *)
let logic_aggregate name update =
  {
    name;
    group = Logic;
    range = default_range Logic;
    dirties = [ C.Logic ];
    get = (fun _ -> 1.0);
    set = (fun cfg f -> Config.map_logic cfg (update f));
  }

let logic =
  [
    logic_aggregate "number of logic gates" (fun f b ->
        { b with Logic_block.gates = b.Logic_block.gates *. f });
    logic_aggregate "width NFET logic" (fun f b ->
        { b with Logic_block.w_nmos = b.Logic_block.w_nmos *. f });
    logic_aggregate "width PFET logic" (fun f b ->
        { b with Logic_block.w_pmos = b.Logic_block.w_pmos *. f });
    logic_aggregate "logic device density" (fun f b ->
        {
          b with
          Logic_block.layout_density = b.Logic_block.layout_density /. f;
        });
    logic_aggregate "logic wiring density" (fun f b ->
        {
          b with
          Logic_block.wiring_density = b.Logic_block.wiring_density *. f;
        });
    logic_aggregate "transistors per logic gate" (fun f b ->
        {
          b with
          Logic_block.transistors_per_gate =
            b.Logic_block.transistors_per_gate *. f;
        });
  ]

let interface_lens name dirties get set =
  {
    name;
    group = Interface;
    range = default_range Interface;
    dirties;
    get;
    set;
  }

let interface =
  [
    interface_lens "DQ pre-driver load" [ C.Interface ]
      (fun c -> c.Config.io_predriver_cap)
      (fun c v -> { c with Config.io_predriver_cap = v });
    interface_lens "DQ receiver load" [ C.Interface ]
      (fun c -> c.Config.io_receiver_cap)
      (fun c v -> { c with Config.io_receiver_cap = v });
    (* The toggle rate scales both the DQ interface events and the
       sense-amp write-back flips. *)
    interface_lens "data toggle rate" [ C.Sense_amp; C.Interface ]
      (fun c -> c.Config.data_toggle)
      (fun c v -> Config.with_data_toggle c v);
    (* Receiver bias is a mix-stage input, like the current adder. *)
    interface_lens "input receiver bias" []
      (fun c -> c.Config.receiver_bias)
      (fun c v -> { c with Config.receiver_bias = v });
  ]

let all = voltages @ technology @ logic @ interface

let find name = List.find_opt (fun l -> l.name = name) all
