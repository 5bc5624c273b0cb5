(* Eq. 1: every charge or discharge event costs 1/2 C V^2, and an
   operation's contributions summed at the external supply.

   Shared source, compiled for floats here, for intervals in lib/absint
   and for read sets in lib/core: Num values only through Num, integers
   through Stdlib, no branch on a Num.t, every read through [Num.rd]
   (lib/tech/num.ml). *)

include Contribution_types

type t = Num.t gen

let event ~cap ~voltage = Num.(lit 0.5 * cap * voltage * voltage)

let events ~count ~cap ~voltage = Num.(count * event ~cap ~voltage)

let total_at_vdd domains contributions =
  List.fold_left
    (fun acc c -> Num.(acc + Domains.at_vdd domains c.domain c.energy))
    (Num.lit 0.0) contributions
