(** Complete description of a DRAM device — the model input of
    Figure 4, covering all five groups of Table I: physical floorplan,
    signaling floorplan, technology, specification and miscellaneous
    circuits. *)

type t = {
  name : string;
  node : Vdram_tech.Node.t;
  spec : Spec.t;
  domains : Vdram_circuits.Domains.t;
  tech : Vdram_tech.Params.t;
  floorplan : Vdram_floorplan.Floorplan.t;
  buses : Vdram_circuits.Bus.t list;
  logic : Vdram_circuits.Logic_block.t list;
  data_toggle : float;
  (** average toggle activity of transported data, default 0.5 *)
  io_predriver_cap : float;
  (** internal load switched per DQ pin and output bit: output-stage
      pre-driver and level shifting (the Vddq output driver itself is
      excluded, as in the paper), farads *)
  io_receiver_cap : float;
  (** internal load switched per DQ pin and input bit: receiver,
      latch and strobe distribution, farads *)
  receiver_bias : float;
  (** DC bias current of one enabled command/address/clock input
      receiver (SSTL-style differential stages), amperes *)
  input_receivers : int;
  (** number of always-enabled input receivers *)
  activation_fraction : float;
  (** share of the page actually activated per row command (1.0 for a
      commodity DRAM; lowered by selective-bitline-activation style
      schemes, Section V) *)
}

val geometry : t -> Vdram_floorplan.Array_geometry.t

val page_bits : t -> int
(** Full page size (bitlines of one row):
    [subarrays_along_wl * bits_per_lwl]. *)

val activated_bits : t -> int
(** Bitlines actually sensed per activate:
    [activation_fraction * page_bits], at least one local wordline
    segment. *)

val with_activation_fraction : t -> float -> t
(** Raises [Invalid_argument] outside (0, 1]. *)

val bus : t -> Vdram_circuits.Bus.role -> Vdram_circuits.Bus.t option
(** First bus with the given role, if any. *)

val standard_complexity : Vdram_tech.Node.standard -> float
(** Relative peripheral-logic complexity of an interface standard
    (SDR = 1.0, growing to DDR5); scales the default logic-block gate
    counts, the paper's fit parameters. *)

val default_logic_blocks :
  node:Vdram_tech.Node.t ->
  spec:Spec.t ->
  Vdram_circuits.Logic_block.t list
(** Miscellaneous peripheral circuitry of a commodity DRAM: always-on
    control, clock distribution, DLL (double-data-rate standards),
    command/address input samplers, and per-command row/column logic
    plus the data (de)serializer. *)

val default_buses :
  floorplan:Vdram_floorplan.Floorplan.t ->
  node:Vdram_tech.Node.t ->
  spec:Spec.t ->
  Vdram_circuits.Bus.t list
(** The signaling floorplan of Figure 1: read/write data buses from
    the center-stripe pads through re-drivers into the banks, address
    and command distribution, and the clock trunk. *)

val rows_per_bank :
  density_bits:float ->
  io_width:int ->
  banks:int ->
  page_bits:int ->
  (float, [ `Io_width | `Density ] * string) result
(** The rows in each bank of a die, or the input that leaves an address
    bus with no wire and a message naming it.  The IO width must be from
    1 to half the page, so the column address has a bit; the density
    must give from 2 rows per bank, so the row address has one, to
    below 2^62, so the count fits an [int].  {!commodity} raises
    [Invalid_argument] with the message; the description language
    reports it at the input's key. *)

val commodity :
  ?name:string ->
  ?standard:Vdram_tech.Node.standard ->
  ?density_bits:float ->
  ?io_width:int ->
  ?datarate:float ->
  ?banks:int ->
  ?page_bits:int ->
  ?bits_per_bitline:int ->
  ?bits_per_lwl:int ->
  ?style:Vdram_floorplan.Array_geometry.bitline_style ->
  ?prefetch:int ->
  ?data_toggle:float ->
  node:Vdram_tech.Node.t ->
  unit ->
  t
(** A commodity DRAM at a technology node, defaulting every group from
    the roadmap ({!Vdram_tech.Roadmap}) and scaled technology
    ({!Vdram_tech.Scaling}); any override replaces the roadmap value.
    Raises [Invalid_argument] when the geometry does not divide. *)

val of_generation : Vdram_tech.Roadmap.t -> t
(** [commodity] for a roadmap generation record. *)

val generation_spec : Vdram_tech.Roadmap.t -> Spec.t
(** [(of_generation g).spec], built by the same code without the rest
    of the configuration. *)

(* Functional updates used by sensitivity analysis and scheme
   evaluation. *)

val with_tech : t -> Vdram_tech.Params.t -> t
val with_domains : t -> Vdram_circuits.Domains.t -> t
val with_spec : t -> Spec.t -> t
val map_logic :
  t -> (Vdram_circuits.Logic_block.t -> Vdram_circuits.Logic_block.t) -> t
val map_buses : t -> (Vdram_circuits.Bus.t -> Vdram_circuits.Bus.t) -> t
val with_data_toggle : t -> float -> t

val pp : Format.formatter -> t -> unit
