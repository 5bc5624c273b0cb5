(** The technology description of a DRAM (Table I, "Technology" group).

    39 parameters describe the process: gate-oxide thicknesses, device
    geometries of the on-pitch array circuitry (bitline sense-amplifier
    of Fig 2, local wordline driver of Fig 3, master wordline decoder),
    array capacitances and specific wire capacitances.  All values are
    base SI (metres, farads, farads per metre). *)

type t = {
  (* Gate oxides (equivalent electrical thickness). *)
  tox_logic : float;       (** general logic transistors *)
  tox_hv : float;          (** high-voltage (Vpp domain) transistors *)
  tox_cell : float;        (** cell access transistor *)
  (* General logic and high-voltage devices. *)
  lmin_logic : float;      (** minimum gate length, general logic *)
  cj_logic : float;        (** junction cap per gate width, general logic *)
  lmin_hv : float;         (** minimum gate length, high voltage *)
  cj_hv : float;           (** junction cap per gate width, high voltage *)
  (* Cell access transistor. *)
  l_cell : float;          (** gate length *)
  w_cell : float;          (** gate width *)
  (* Array capacitances. *)
  c_bitline : float;       (** total capacitance of one bitline *)
  c_cell : float;          (** cell storage capacitance *)
  bl_wl_coupling : float;  (** share of bitline cap coupling to wordline *)
  (* Column access. *)
  bits_per_csl : int;      (** bits accessed per column select line *)
  (* Master wordline / row decode. *)
  c_wire_mwl : float;      (** specific wire capacitance, master wordline *)
  mwl_predecode : float;   (** pre-decode ratio of the master WL decoder *)
  w_mwl_dec_n : float;     (** master WL decoder NMOS width *)
  w_mwl_dec_p : float;     (** master WL decoder PMOS width *)
  mwl_dec_activity : float;(** average switching share of the decoder *)
  w_wlctl_load_n : float;  (** wordline-controller load NMOS width *)
  w_wlctl_load_p : float;  (** wordline-controller load PMOS width *)
  (* Local (sub-)wordline driver, Fig 3. *)
  w_lwd_n : float;         (** sub-wordline driver NMOS width *)
  w_lwd_p : float;         (** sub-wordline driver PMOS width *)
  w_lwd_restore : float;   (** sub-wordline restore NMOS width *)
  c_wire_lwl : float;      (** specific wire capacitance, sub-wordline *)
  (* Bitline sense-amplifier devices, Fig 2. *)
  w_sa_n : float;          (** NMOS sense-pair width *)
  l_sa_n : float;          (** NMOS sense-pair length *)
  w_sa_p : float;          (** PMOS sense-pair width *)
  l_sa_p : float;          (** PMOS sense-pair length *)
  w_sa_eq : float;         (** equalize-device width *)
  l_sa_eq : float;         (** equalize-device length *)
  w_sa_bitswitch : float;  (** bit-switch (column select) width *)
  l_sa_bitswitch : float;  (** bit-switch length *)
  w_sa_mux : float;        (** bitline-multiplexer width (folded only) *)
  l_sa_mux : float;        (** bitline-multiplexer length (folded only) *)
  w_sa_nset : float;       (** NMOS set-device width (per SA share) *)
  l_sa_nset : float;       (** NMOS set-device length *)
  w_sa_pset : float;       (** PMOS set-device width (per SA share) *)
  l_sa_pset : float;       (** PMOS set-device length *)
  (* General signaling. *)
  c_wire_signal : float;   (** specific wire capacitance, signaling wires *)
}

val reference_node : Node.t
(** The node at which {!reference} is calibrated: 55 nm. *)

val reference : t
(** Typical 55 nm commodity-DRAM technology; the calibration anchor for
    all scaled generations. *)

val count : int
(** Number of technology parameters (39, as stated in the paper). *)

val fields : (string * (t -> float) * (t -> float -> t)) list
(** Name / getter / setter for every float field, used by the
    sensitivity analysis to perturb parameters generically.
    [bits_per_csl] is exposed read-only elsewhere (it is structural). *)

val changed : t -> t -> int
(** Bit [k] set when the [k]th field of {!fields} differs, bit 38 when
    [bits_per_csl] does; a NaN differs from everything. *)

val pp : Format.formatter -> t -> unit
(** Multi-line listing of all parameters with engineering units. *)
