(* Gate and junction capacitance of MOS devices.

   Shared source, compiled for floats here, for intervals in lib/absint
   and for read sets in lib/core: Num values only through Num, integers
   through Stdlib, no branch on a Num.t, every read through [rd]
   (num.ml). *)

open Num

let eps_ox = lit (3.9 *. 8.854e-12)

let gate_cap ~tox ~w ~l = eps_ox / tox * w * l

type mos_class = Logic | High_voltage | Cell

let tox_of (p : Params.t reader) = function
  | Logic -> rd p (fun p -> p.tox_logic)
  | High_voltage -> rd p (fun p -> p.tox_hv)
  | Cell -> rd p (fun p -> p.tox_cell)

let cj_of (p : Params.t reader) = function
  | Logic -> rd p (fun p -> p.cj_logic)
  | High_voltage -> rd p (fun p -> p.cj_hv)
  (* array junctions behave like the HV class *)
  | Cell -> rd p (fun p -> p.cj_hv)

let gate_cap_of p cls ~w ~l = gate_cap ~tox:(tox_of p cls) ~w ~l

let junction_cap_of p cls ~w = cj_of p cls * w

let device_cap p cls ~w ~l = gate_cap_of p cls ~w ~l + junction_cap_of p cls ~w
