(** Miscellaneous peripheral logic blocks (Table I, "Logic block
    description" group).

    Command/address decoding, clock synchronisation and distribution
    and similar functions are modelled by the number of toggling
    gates, average device sizes and densities.  The gate count is the
    paper's fit parameter against datasheet currents. *)

type trigger = Logic_block_types.trigger =
  | Always
      (** toggles every control-clock cycle (clocking, input samplers) *)
  | On_operation of [ `Activate | `Precharge | `Read | `Write ] list
      (** evaluates once per occurrence of the listed operations *)

type t = Logic_block_types.t = {
  name : string;
  gates : float;               (** number of gates in the block *)
  w_nmos : float;              (** average NMOS width, m *)
  w_pmos : float;              (** average PMOS width, m *)
  transistors_per_gate : float;
  layout_density : float;      (** share of area covered by gates *)
  wiring_density : float;      (** share of area covered by local wiring *)
  trigger : trigger;
  toggle : float;              (** toggling rate relative to the clock *)
}

val v :
  ?w_nmos:float -> ?w_pmos:float -> ?transistors_per_gate:float ->
  ?layout_density:float -> ?wiring_density:float -> ?toggle:float ->
  name:string -> gates:float -> trigger:trigger -> unit -> t
(** Defaults: widths 0.5 um, 4 transistors per gate, layout density
    0.3, wiring density 0.5, toggle 0.15. *)

val changed : t -> t -> int
(** Bit [k] set when the [k]th float field differs ([gates] 0 ..
    [toggle] 6); a NaN differs from everything. *)

val scale_widths : float -> t -> t
(** Multiply the average device widths (used by technology scaling). *)

val gate_capacitance : Vdram_tech.Params.t -> t -> float
(** Device plus local-wiring capacitance of one average gate. *)

val area : Vdram_tech.Params.t -> t -> float
(** Layout area of the block, m^2. *)

val energy_per_fire : Vdram_tech.Params.t -> Domains.t -> t -> float
(** Energy dissipated each time the block evaluates (one clock cycle
    for [Always] blocks, one command for [On_operation] blocks):
    [gates * toggle * 1/2 C_gate Vint^2]. *)
