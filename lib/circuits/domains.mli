(** DRAM voltage domains and their generators (Section III.A).

    Wordlines are boosted to Vpp; the bitline voltage Vbl is the
    reliability-limited cell storage voltage; Vint supplies most logic
    and is either regulated from, or directly connected to, the
    external Vdd.  Energy drawn in a derived domain costs
    [energy / efficiency] at the Vdd pins. *)

type domain = Domains_types.domain = Vdd | Vint | Vbl | Vpp

val domain_name : domain -> string

type t = Domains_types.t = {
  vdd : float;
  vint : float;
  vbl : float;
  vpp : float;
  eff_int : float;  (** generator efficiency of the Vint regulator *)
  eff_bl : float;   (** generator efficiency of the Vbl regulator *)
  eff_pp : float;   (** pump efficiency of the Vpp charge pump *)
  i_constant : float;
  (** constant current sink from Vdd (reference currents, power
      system), amperes *)
}

val v :
  ?eff_int:float -> ?eff_bl:float -> ?eff_pp:float -> ?i_constant:float ->
  vdd:float -> vint:float -> vbl:float -> vpp:float -> unit -> t
(** Build a domain set.  Efficiencies default to the physical models
    of {!linear_efficiency} (Vint, Vbl) and {!pump_efficiency} (Vpp);
    [i_constant] defaults to 3 mA.  Raises [Invalid_argument] on
    non-positive voltages or efficiencies outside (0, 1]. *)

val linear_efficiency : vdd:float -> vout:float -> float
(** Efficiency of a linear regulator: [vout /. vdd], capped at 1.0
    (a directly connected rail is lossless). *)

val pump_efficiency : vdd:float -> vout:float -> float
(** Efficiency of a charge pump with integer multiplication factor
    [k = ceil (vout / vdd)]: [0.85 * vout / (k * vdd)]. *)

val efficiency : t -> domain -> float
(** 1.0 for [Vdd]. *)

val at_vdd : t -> domain -> float -> float
(** [at_vdd t d e] is the energy drawn from the external supply when
    [e] joules are dissipated in domain [d]. *)

val pp : Format.formatter -> t -> unit
