(* Signaling buses: the capacitance of a segment and the energy of a
   bit and of an event.

   Shared source, compiled for floats here and for intervals in
   lib/absint: Num values only through Num, integers through Stdlib, no
   branch on a Num.t, every read through [rd] (lib/tech/num.ml). *)

open Num
include Bus_types
module P = Vdram_tech.Params
module D = Devices

let segment_capacitance (p : P.t reader) s =
  let wire = rd p (fun p -> p.c_wire_signal) * lit s.length in
  let buffer =
    match s.buffer with
    | None -> lit 0.0
    | Some (wn, wp) ->
      let l = rd p (fun p -> p.lmin_logic) in
      D.device_cap p D.Logic ~w:(lit wn) ~l
      + D.device_cap p D.Logic ~w:(lit wp) ~l
  in
  wire + buffer

let energy_per_bit p (d : Domains.t reader) b =
  let vint = rd d (fun d -> d.vint) in
  List.fold_left
    (fun acc s ->
      acc
      + lit s.toggle
        * Contribution.event ~cap:(segment_capacitance p s) ~voltage:vint)
    (lit 0.0) b.segments

let energy_per_event p d b = of_int b.wires * energy_per_bit p d b
