(* Technology parameters (Table I "Technology" group). *)

type t = {
  tox_logic : float;
  tox_hv : float;
  tox_cell : float;
  lmin_logic : float;
  cj_logic : float;
  lmin_hv : float;
  cj_hv : float;
  l_cell : float;
  w_cell : float;
  c_bitline : float;
  c_cell : float;
  bl_wl_coupling : float;
  bits_per_csl : int;
  c_wire_mwl : float;
  mwl_predecode : float;
  w_mwl_dec_n : float;
  w_mwl_dec_p : float;
  mwl_dec_activity : float;
  w_wlctl_load_n : float;
  w_wlctl_load_p : float;
  w_lwd_n : float;
  w_lwd_p : float;
  w_lwd_restore : float;
  c_wire_lwl : float;
  w_sa_n : float;
  l_sa_n : float;
  w_sa_p : float;
  l_sa_p : float;
  w_sa_eq : float;
  l_sa_eq : float;
  w_sa_bitswitch : float;
  l_sa_bitswitch : float;
  w_sa_mux : float;
  l_sa_mux : float;
  w_sa_nset : float;
  l_sa_nset : float;
  w_sa_pset : float;
  l_sa_pset : float;
  c_wire_signal : float;
}

let reference_node = Node.N55

(* Calibrated to a typical 55 nm commodity DDR3 process: bitline of 512
   cells at ~75 fF, 25 fF storage cell, on-pitch devices sized to the
   bitline pitch, wire capacitance ~0.35 fF/um. *)
let reference = {
  tox_logic = 5.0e-9;
  tox_hv = 8.0e-9;
  tox_cell = 7.0e-9;
  lmin_logic = 0.09e-6;
  cj_logic = 0.8e-9;          (* 0.8 fF per um of gate width *)
  lmin_hv = 0.35e-6;
  cj_hv = 1.0e-9;
  l_cell = 0.10e-6;           (* recessed channel, longer than F *)
  w_cell = 0.055e-6;
  c_bitline = 75.0e-15;
  c_cell = 25.0e-15;
  bl_wl_coupling = 0.15;
  bits_per_csl = 8;
  c_wire_mwl = 0.35e-9;       (* 0.25 fF/um, M2 aluminium *)
  mwl_predecode = 8.0;
  w_mwl_dec_n = 0.4e-6;
  w_mwl_dec_p = 0.6e-6;
  mwl_dec_activity = 0.25;
  w_wlctl_load_n = 0.3e-6;
  w_wlctl_load_p = 0.3e-6;
  w_lwd_n = 0.6e-6;
  w_lwd_p = 0.8e-6;
  w_lwd_restore = 0.3e-6;
  c_wire_lwl = 0.20e-9;       (* gate poly stripe, wire part only *)
  w_sa_n = 0.7e-6;
  l_sa_n = 0.12e-6;
  w_sa_p = 0.5e-6;
  l_sa_p = 0.12e-6;
  w_sa_eq = 0.3e-6;
  l_sa_eq = 0.10e-6;
  w_sa_bitswitch = 0.5e-6;
  l_sa_bitswitch = 0.10e-6;
  w_sa_mux = 0.4e-6;
  l_sa_mux = 0.10e-6;
  w_sa_nset = 0.4e-6;
  l_sa_nset = 0.15e-6;
  w_sa_pset = 0.6e-6;
  l_sa_pset = 0.15e-6;
  c_wire_signal = 0.35e-9;
}

let count = 39

let fields =
  [ ("gate oxide thickness logic", (fun t -> t.tox_logic),
     fun t v -> { t with tox_logic = v });
    ("gate oxide thickness high voltage", (fun t -> t.tox_hv),
     fun t v -> { t with tox_hv = v });
    ("gate oxide thickness cell transistor", (fun t -> t.tox_cell),
     fun t v -> { t with tox_cell = v });
    ("minimum gate length logic", (fun t -> t.lmin_logic),
     fun t v -> { t with lmin_logic = v });
    ("junction capacitance logic", (fun t -> t.cj_logic),
     fun t v -> { t with cj_logic = v });
    ("minimum gate length high voltage", (fun t -> t.lmin_hv),
     fun t v -> { t with lmin_hv = v });
    ("junction capacitance high voltage", (fun t -> t.cj_hv),
     fun t v -> { t with cj_hv = v });
    ("gate length cell transistor", (fun t -> t.l_cell),
     fun t v -> { t with l_cell = v });
    ("gate width cell transistor", (fun t -> t.w_cell),
     fun t v -> { t with w_cell = v });
    ("bitline capacitance", (fun t -> t.c_bitline),
     fun t v -> { t with c_bitline = v });
    ("cell capacitance", (fun t -> t.c_cell),
     fun t v -> { t with c_cell = v });
    ("bitline-wordline coupling share", (fun t -> t.bl_wl_coupling),
     fun t v -> { t with bl_wl_coupling = v });
    ("specific wire capacitance master wordline", (fun t -> t.c_wire_mwl),
     fun t v -> { t with c_wire_mwl = v });
    ("pre-decode ratio master wordline", (fun t -> t.mwl_predecode),
     fun t v -> { t with mwl_predecode = v });
    ("width master wordline decoder NMOS", (fun t -> t.w_mwl_dec_n),
     fun t v -> { t with w_mwl_dec_n = v });
    ("width master wordline decoder PMOS", (fun t -> t.w_mwl_dec_p),
     fun t v -> { t with w_mwl_dec_p = v });
    ("switching activity master wordline decoder",
     (fun t -> t.mwl_dec_activity),
     fun t v -> { t with mwl_dec_activity = v });
    ("width load NMOS wordline controller", (fun t -> t.w_wlctl_load_n),
     fun t v -> { t with w_wlctl_load_n = v });
    ("width load PMOS wordline controller", (fun t -> t.w_wlctl_load_p),
     fun t v -> { t with w_wlctl_load_p = v });
    ("width sub-wordline driver NMOS", (fun t -> t.w_lwd_n),
     fun t v -> { t with w_lwd_n = v });
    ("width sub-wordline driver PMOS", (fun t -> t.w_lwd_p),
     fun t v -> { t with w_lwd_p = v });
    ("width sub-wordline restore NMOS", (fun t -> t.w_lwd_restore),
     fun t v -> { t with w_lwd_restore = v });
    ("specific wire capacitance sub-wordline", (fun t -> t.c_wire_lwl),
     fun t v -> { t with c_wire_lwl = v });
    ("width sense-amplifier NMOS pair", (fun t -> t.w_sa_n),
     fun t v -> { t with w_sa_n = v });
    ("length sense-amplifier NMOS pair", (fun t -> t.l_sa_n),
     fun t v -> { t with l_sa_n = v });
    ("width sense-amplifier PMOS pair", (fun t -> t.w_sa_p),
     fun t v -> { t with w_sa_p = v });
    ("length sense-amplifier PMOS pair", (fun t -> t.l_sa_p),
     fun t v -> { t with l_sa_p = v });
    ("width sense-amplifier equalize", (fun t -> t.w_sa_eq),
     fun t v -> { t with w_sa_eq = v });
    ("length sense-amplifier equalize", (fun t -> t.l_sa_eq),
     fun t v -> { t with l_sa_eq = v });
    ("width sense-amplifier bit switch", (fun t -> t.w_sa_bitswitch),
     fun t v -> { t with w_sa_bitswitch = v });
    ("length sense-amplifier bit switch", (fun t -> t.l_sa_bitswitch),
     fun t v -> { t with l_sa_bitswitch = v });
    ("width sense-amplifier bitline multiplexer", (fun t -> t.w_sa_mux),
     fun t v -> { t with w_sa_mux = v });
    ("length sense-amplifier bitline multiplexer", (fun t -> t.l_sa_mux),
     fun t v -> { t with l_sa_mux = v });
    ("width sense-amplifier NMOS set device", (fun t -> t.w_sa_nset),
     fun t v -> { t with w_sa_nset = v });
    ("length sense-amplifier NMOS set device", (fun t -> t.l_sa_nset),
     fun t v -> { t with l_sa_nset = v });
    ("width sense-amplifier PMOS set device", (fun t -> t.w_sa_pset),
     fun t v -> { t with w_sa_pset = v });
    ("length sense-amplifier PMOS set device", (fun t -> t.l_sa_pset),
     fun t v -> { t with l_sa_pset = v });
    ("specific wire capacitance signaling", (fun t -> t.c_wire_signal),
     fun t v -> { t with c_wire_signal = v });
  ]

(* Bit [k] set when the [k]th field of [fields] differs, bit 38 when
   [bits_per_csl] does; float [=], so a NaN always differs.  Straight
   line: delta-extraction runs it once per perturbed configuration. *)
let changed a b =
  let[@inline] ne k (x : float) y = if x = y then 0 else 1 lsl k in
  ne 0 a.tox_logic b.tox_logic lor ne 1 a.tox_hv b.tox_hv
  lor ne 2 a.tox_cell b.tox_cell lor ne 3 a.lmin_logic b.lmin_logic
  lor ne 4 a.cj_logic b.cj_logic lor ne 5 a.lmin_hv b.lmin_hv
  lor ne 6 a.cj_hv b.cj_hv lor ne 7 a.l_cell b.l_cell
  lor ne 8 a.w_cell b.w_cell lor ne 9 a.c_bitline b.c_bitline
  lor ne 10 a.c_cell b.c_cell lor ne 11 a.bl_wl_coupling b.bl_wl_coupling
  lor ne 12 a.c_wire_mwl b.c_wire_mwl
  lor ne 13 a.mwl_predecode b.mwl_predecode
  lor ne 14 a.w_mwl_dec_n b.w_mwl_dec_n lor ne 15 a.w_mwl_dec_p b.w_mwl_dec_p
  lor ne 16 a.mwl_dec_activity b.mwl_dec_activity
  lor ne 17 a.w_wlctl_load_n b.w_wlctl_load_n
  lor ne 18 a.w_wlctl_load_p b.w_wlctl_load_p lor ne 19 a.w_lwd_n b.w_lwd_n
  lor ne 20 a.w_lwd_p b.w_lwd_p lor ne 21 a.w_lwd_restore b.w_lwd_restore
  lor ne 22 a.c_wire_lwl b.c_wire_lwl lor ne 23 a.w_sa_n b.w_sa_n
  lor ne 24 a.l_sa_n b.l_sa_n lor ne 25 a.w_sa_p b.w_sa_p
  lor ne 26 a.l_sa_p b.l_sa_p lor ne 27 a.w_sa_eq b.w_sa_eq
  lor ne 28 a.l_sa_eq b.l_sa_eq lor ne 29 a.w_sa_bitswitch b.w_sa_bitswitch
  lor ne 30 a.l_sa_bitswitch b.l_sa_bitswitch lor ne 31 a.w_sa_mux b.w_sa_mux
  lor ne 32 a.l_sa_mux b.l_sa_mux lor ne 33 a.w_sa_nset b.w_sa_nset
  lor ne 34 a.l_sa_nset b.l_sa_nset lor ne 35 a.w_sa_pset b.w_sa_pset
  lor ne 36 a.l_sa_pset b.l_sa_pset lor ne 37 a.c_wire_signal b.c_wire_signal
  lor if a.bits_per_csl = b.bits_per_csl then 0 else 1 lsl 38

let pp ppf t =
  let q dim v = Vdram_units.Quantity.to_string dim v in
  let open Vdram_units.Quantity in
  let line name s = Format.fprintf ppf "  %-46s %s@," name s in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, get, _) ->
      let v = get t in
      let dim =
        if String.length name > 4 && String.sub name 0 5 = "width" then Length
        else if String.length name > 5 && String.sub name 0 6 = "length"
        then Length
        else
          match name with
          | "gate oxide thickness logic"
          | "gate oxide thickness high voltage"
          | "gate oxide thickness cell transistor"
          | "minimum gate length logic"
          | "minimum gate length high voltage"
          | "gate length cell transistor"
          | "gate width cell transistor" -> Length
          | "junction capacitance logic"
          | "junction capacitance high voltage" -> Cap_per_length
          | "bitline capacitance" | "cell capacitance" -> Capacitance
          | "specific wire capacitance master wordline"
          | "specific wire capacitance sub-wordline"
          | "specific wire capacitance signaling" -> Cap_per_length
          | "bitline-wordline coupling share" -> Fraction
          | _ -> Scalar
      in
      line name (q dim v))
    fields;
  line "bits accessed per column select line"
    (string_of_int t.bits_per_csl);
  Format.fprintf ppf "@]"
