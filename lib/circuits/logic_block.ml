(* Peripheral logic blocks: the capacitance of an average gate, the
   block's area and the energy of one evaluation.

   Shared source, compiled for floats here and for intervals in
   lib/absint: Num values only through Num, integers through Stdlib, no
   branch on a Num.t, every read through [rd] (lib/tech/num.ml). *)

open Num
include Logic_block_types
module P = Vdram_tech.Params
module D = Devices

let avg_width (b : t reader) =
  (rd b (fun b -> b.w_nmos) + rd b (fun b -> b.w_pmos)) / lit 2.0

(* Area of one gate: transistor area over the layout density. *)
let gate_area (p : P.t reader) b =
  rd b (fun b -> b.transistors_per_gate)
  * avg_width b
  * rd p (fun p -> p.lmin_logic)
  / rd b (fun b -> b.layout_density)

let gate_capacitance (p : P.t reader) b =
  let w = avg_width b in
  let lmin = rd p (fun p -> p.lmin_logic) in
  let device =
    rd b (fun b -> b.transistors_per_gate)
    * (D.gate_cap_of p D.Logic ~w ~l:lmin + D.junction_cap_of p D.Logic ~w)
  in
  (* Local wiring: the covered wiring length at a pitch of four
     minimum gate lengths. *)
  let wire_length =
    rd b (fun b -> b.wiring_density) * gate_area p b / (lit 4.0 * lmin)
  in
  device + (rd p (fun p -> p.c_wire_signal) * wire_length)

let area p b = rd b (fun b -> b.gates) * gate_area p b

let energy_per_fire p (d : Domains.t reader) b =
  rd b (fun b -> b.gates)
  * rd b (fun b -> b.toggle)
  * Contribution.event ~cap:(gate_capacitance p b)
      ~voltage:(rd d (fun d -> d.vint))
