(* Column-path charge model: CSL, data lines, secondary sense-amps.

   Shared source, compiled for floats here, for intervals in lib/absint
   and for read sets in lib/core: Num values only through Num, integers
   through Stdlib, no branch on a Num.t, every read through [rd]
   (lib/tech/num.ml). *)

open Num
module P = Vdram_tech.Params
module D = Devices
module G = Vdram_floorplan.Array_geometry

let bits_per_csl (p : P.t reader) =
  rd p (fun p -> float_of_int p.bits_per_csl)

let csl_capacitance (p : P.t reader) ~geometry =
  let wire = rd p (fun p -> p.c_wire_signal) * lit (G.csl_length geometry) in
  (* The CSL crosses every SA stripe of the blocks sharing it and
     drives [bits_per_csl] bit-switch gates in each. *)
  let stripes =
    of_int
      Stdlib.((geometry.G.subarrays_along_bl + 1) * geometry.G.csl_blocks)
  in
  let switch_gates =
    bits_per_csl p
    * D.gate_cap_of p D.Logic
        ~w:(rd p (fun p -> p.w_sa_bitswitch))
        ~l:(rd p (fun p -> p.l_sa_bitswitch))
  in
  wire + (stripes * switch_gates)

let secondary_sa_cap (p : P.t reader) =
  (* Four logic transistors of sense-pair size per master data line
     pair: amplifier cross-couple plus write driver. *)
  lit 4.0
  * D.device_cap p D.Logic
      ~w:(rd p (fun p -> p.w_sa_n))
      ~l:(rd p (fun p -> p.l_sa_n))

let madl_pair_capacitance (p : P.t reader) ~geometry =
  (lit 2.0 * rd p (fun p -> p.c_wire_signal) * lit (G.madl_length geometry))
  + secondary_sa_cap p

let local_dq_pair_capacitance (p : P.t reader) ~geometry =
  (* The local data lines run along the SA stripe across one
     sub-array's width. *)
  lit 2.0 * rd p (fun p -> p.c_wire_signal) * lit (G.subarray_width geometry)

(* Column decode mirrors the row pre-decode but fires per column
   command; its pre-decode lines run along the column-logic stripe
   across the array block width. *)
let column_decode_energy (p : P.t reader) (d : Domains.t reader) ~geometry
    ~csl_fires =
  let l = rd p (fun p -> p.lmin_logic) in
  let decoder_gates =
    D.gate_cap_of p D.Logic ~w:(rd p (fun p -> p.w_mwl_dec_n)) ~l
    + D.gate_cap_of p D.Logic ~w:(rd p (fun p -> p.w_mwl_dec_p)) ~l
  in
  let line =
    (rd p (fun p -> p.c_wire_signal) * lit (G.master_wordline_length geometry))
    + decoder_gates
  in
  Contribution.events
    ~count:
      (csl_fires
      * rd p (fun p -> p.mwl_predecode)
      * rd p (fun p -> p.mwl_dec_activity))
    ~cap:line
    ~voltage:(rd d (fun d -> d.vint))

let access p (d : Domains.t reader) ~geometry ~bits ~write =
  let nbits = of_int bits in
  let csl_fires = nbits / bits_per_csl p in
  let vint = rd d (fun d -> d.vint) and vbl = rd d (fun d -> d.vbl) in
  let c = Contribution.v in
  let base =
    [
      c ~label:"column decode" ~domain:Domains.Vint
        ~energy:(column_decode_energy p d ~geometry ~csl_fires);
      (* Each selected CSL pulses high and back low. *)
      c ~label:"column select line" ~domain:Domains.Vint
        ~energy:
          (Contribution.events ~count:(lit 2.0 * csl_fires)
             ~cap:(csl_capacitance p ~geometry) ~voltage:vint);
      (* Local data line pairs: precharged, one side swings per bit. *)
      c ~label:"local data lines" ~domain:Domains.Vbl
        ~energy:
          (Contribution.events ~count:nbits
             ~cap:(local_dq_pair_capacitance p ~geometry) ~voltage:vbl);
      (* Master array data lines: the precharged differential pair
         sees a precharge and an evaluate event per transported bit. *)
      c ~label:"master array data lines" ~domain:Domains.Vint
        ~energy:
          (Contribution.events ~count:(lit 2.0 * nbits)
             ~cap:(madl_pair_capacitance p ~geometry) ~voltage:vint);
      c ~label:"secondary sense amplifier" ~domain:Domains.Vint
        ~energy:
          (Contribution.events ~count:nbits ~cap:(secondary_sa_cap p)
             ~voltage:vint);
    ]
  in
  if write then
    (* Write drivers present an extra device load per pair while
       forcing the data lines. *)
    base
    @ [
        c ~label:"write drivers" ~domain:Domains.Vint
          ~energy:
            (Contribution.events ~count:nbits ~cap:(secondary_sa_cap p)
               ~voltage:vint);
      ]
  else base
