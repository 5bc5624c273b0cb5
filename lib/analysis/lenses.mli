(** Named getter/setter pairs over a configuration, the handles the
    sensitivity analysis perturbs.

    Lens granularity follows the paper: every technology parameter of
    Table I individually, the internal voltages and generator
    efficiencies, the constant current adder, the miscellaneous-logic
    aggregates (gate count, device widths, densities) and the
    interface loads. *)

type group = Voltage | Technology | Logic | Interface

val group_name : group -> string

val default_range : group -> float * float
(** Default certified multiplicative band per lens group, the range
    [vdram check] certifies when the caller declares no explicit one:
    (0.9, 1.1) for voltages, (0.85, 1.15) for technology, (0.8, 1.25)
    for logic aggregates, (0.8, 1.2) for interface loads. *)

type t = {
  name : string;
  group : group;
  range : float * float;  (** default certified scale-factor range *)
  dirties : Vdram_circuits.Contribution.group list;
      (** circuit groups the lens can reach on some device: a test pins
          it to the union, over the shipped devices and a 55 nm part
          of each bitline style, of the groups whose traced read set
          ({!Vdram_core.Read_set.trace}) holds a field the lens moves.
          Delta-extraction does not read it — it traces each base
          itself, and dirties fewer groups where a device reads less
          (an open-bitline sense amp reads no multiplexer).  Empty for
          mix-stage-only lenses (generator efficiencies, constant
          current adder, receiver bias). *)
  get : Vdram_core.Config.t -> float;
  set : Vdram_core.Config.t -> float -> Vdram_core.Config.t;
}

val scale : t -> float -> Vdram_core.Config.t -> Vdram_core.Config.t
(** [scale lens f cfg] multiplies the lens value by [f]. *)

val technology : t list
(** The 38 float technology parameters. *)

val voltages : t list
(** Vdd, Vint, Vbl, Vpp, the three generator efficiencies and the
    constant current adder.  Varying a voltage keeps its generator
    efficiency fixed, as in the paper. *)

val logic : t list
(** Aggregates over all miscellaneous logic blocks: number of gates,
    NFET width, PFET width, device (layout) density, wiring density,
    transistors per gate. *)

val interface : t list
(** DQ pre-driver and receiver load, data toggle rate, receiver
    bias. *)

val all : t list
(** Everything above, the Figure 10 parameter set. *)

val find : string -> t option
(** Lens by name. *)
