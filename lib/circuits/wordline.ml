(* Row-path charge model: decoder, master and local wordlines.

   Shared source, compiled for floats here and for intervals in
   lib/absint: Num values only through Num, integers through Stdlib, no
   branch on a Num.t, every read through [rd] (lib/tech/num.ml). *)

open Num
module P = Vdram_tech.Params
module D = Devices
module G = Vdram_floorplan.Array_geometry

(* Gate load one local wordline driver presents to its master
   wordline: the p- and n-channel driver gates (Fig 3). *)
let lwd_gate_load (p : P.t reader) =
  D.gate_cap_of p D.High_voltage
    ~w:(rd p (fun p -> p.w_lwd_n))
    ~l:(rd p (fun p -> p.lmin_hv))
  + D.gate_cap_of p D.High_voltage
      ~w:(rd p (fun p -> p.w_lwd_p))
      ~l:(rd p (fun p -> p.lmin_hv))

let mwl_capacitance (p : P.t reader) ~geometry =
  let wire =
    rd p (fun p -> p.c_wire_mwl) * lit (G.master_wordline_length geometry)
  in
  let lwds = of_int Stdlib.(geometry.G.subarrays_along_wl + 1) in
  let decoder_junctions =
    D.junction_cap_of p D.High_voltage ~w:(rd p (fun p -> p.w_mwl_dec_n))
    + D.junction_cap_of p D.High_voltage ~w:(rd p (fun p -> p.w_mwl_dec_p))
  in
  wire + (lwds * lwd_gate_load p) + decoder_junctions

let lwl_capacitance (p : P.t reader) ~geometry =
  let wire = rd p (fun p -> p.c_wire_lwl) * lit (G.lwl_length geometry) in
  let cells =
    of_int geometry.G.bits_per_lwl
    * D.gate_cap_of p D.Cell
        ~w:(rd p (fun p -> p.w_cell))
        ~l:(rd p (fun p -> p.l_cell))
  in
  (* The rising wordline must also charge the share of each crossing
     bitline's capacitance that couples to it. *)
  let coupling =
    of_int geometry.G.bits_per_lwl
    * rd p (fun p -> p.bl_wl_coupling)
    * rd p (fun p -> p.c_bitline)
    / of_int geometry.G.bits_per_bitline
  in
  let restore_junction =
    D.junction_cap_of p D.High_voltage ~w:(rd p (fun p -> p.w_lwd_restore))
  in
  wire + cells + coupling + restore_junction

(* Select lines from the wordline controller into the driver stripes:
   one per activated sub-array, loaded with the controller load
   devices and the restore gates of the drivers in the stripe. *)
let select_line_cap (p : P.t reader) =
  let l = rd p (fun p -> p.lmin_hv) in
  D.gate_cap_of p D.High_voltage ~w:(rd p (fun p -> p.w_wlctl_load_n)) ~l
  + D.gate_cap_of p D.High_voltage ~w:(rd p (fun p -> p.w_wlctl_load_p)) ~l
  + D.gate_cap_of p D.High_voltage ~w:(rd p (fun p -> p.w_lwd_restore)) ~l

(* Pre-decode: the row address fans out over pre-decoded lines running
   the length of the row-logic stripe, each loaded with decoder gates;
   only a share switches per access. *)
let predecode_energy (p : P.t reader) (d : Domains.t reader) ~geometry =
  let l = rd p (fun p -> p.lmin_logic) in
  let decoder_gates =
    D.gate_cap_of p D.Logic ~w:(rd p (fun p -> p.w_mwl_dec_n)) ~l
    + D.gate_cap_of p D.Logic ~w:(rd p (fun p -> p.w_mwl_dec_p)) ~l
  in
  let line =
    (rd p (fun p -> p.c_wire_signal) * lit (G.madl_length geometry))
    + decoder_gates
  in
  Contribution.events
    ~count:
      (rd p (fun p -> p.mwl_predecode)
      * rd p (fun p -> p.mwl_dec_activity)
      * lit 2.0)
    ~cap:line
    ~voltage:(rd d (fun d -> d.vint))

let row_events p (d : Domains.t reader) ~geometry ~page_bits =
  let n_lwl = of_int Stdlib.(page_bits / geometry.G.bits_per_lwl) in
  let vpp = rd d (fun d -> d.vpp) in
  let mwl =
    Contribution.event ~cap:(mwl_capacitance p ~geometry) ~voltage:vpp
  in
  let lwl =
    Contribution.events ~count:n_lwl ~cap:(lwl_capacitance p ~geometry)
      ~voltage:vpp
  in
  let select =
    Contribution.events ~count:n_lwl ~cap:(select_line_cap p) ~voltage:vpp
  in
  (mwl, lwl, select)

let activate p d ~geometry ~page_bits =
  let mwl, lwl, select = row_events p d ~geometry ~page_bits in
  [
    Contribution.v ~label:"row decode" ~domain:Domains.Vint
      ~energy:(predecode_energy p d ~geometry);
    Contribution.v ~label:"master wordline" ~domain:Domains.Vpp ~energy:mwl;
    Contribution.v ~label:"wordline select" ~domain:Domains.Vpp
      ~energy:select;
    Contribution.v ~label:"local wordline" ~domain:Domains.Vpp ~energy:lwl;
  ]

let precharge p d ~geometry ~page_bits =
  let mwl, lwl, select = row_events p d ~geometry ~page_bits in
  [
    Contribution.v ~label:"master wordline" ~domain:Domains.Vpp ~energy:mwl;
    Contribution.v ~label:"wordline select" ~domain:Domains.Vpp
      ~energy:select;
    Contribution.v ~label:"local wordline" ~domain:Domains.Vpp ~energy:lwl;
  ]
