(* Voltage domains and generator efficiencies: the referral of energy
   drawn in a derived domain to the external supply.

   Shared source, compiled for floats here and for intervals in
   lib/absint: Num values only through Num, integers through Stdlib, no
   branch on a Num.t, every read through [Num.rd] (lib/tech/num.ml). *)

include Domains_types

let efficiency (d : t Num.reader) = function
  | Vdd -> Num.lit 1.0
  | Vint -> Num.rd d (fun d -> d.eff_int)
  | Vbl -> Num.rd d (fun d -> d.eff_bl)
  | Vpp -> Num.rd d (fun d -> d.eff_pp)

let at_vdd d domain e = Num.(e / efficiency d domain)
