(* The number the charge models compute with, for the interval
   compilation.  Devices, the charge models under lib/circuits and the
   per-operation plan in lib/core are written once against a [Num] and
   compiled three times: for floats in their own libraries, here (the
   dune file copies them in) against this module, and in lib/core
   against the read-set [Num] of trace_num.ml.

   Rules for that shared source, which this compilation enforces:
   - a [Num.t] is built and combined only through [Num]: [+ * /],
     [lit] for a constant no lens moves, [of_int];
   - integer arithmetic goes through [Stdlib];
   - no branch on a [Num.t] (branch on geometry, flags and lists);
   - every scalar a lens can move is read through [rd], with a
     literal selector, from a reader of the record it lives in.

   Soundness is then by induction: the box's reader returns an
   interval holding the value every member of the box gives, and each
   operation here contains every rounded result of the float operation
   the float compilation performs at the same place. *)

module I = Vdram_units.Interval

type t = I.t

(* A reader is a box's accessor for one record: [Abox.tech],
   [Abox.domains], [Abox.field] or [Abox.logic] applied to the box. *)
type 'a reader = ('a -> float) -> I.t

let ( + ) = I.O.( + )
let ( * ) = I.O.( * )
let ( / ) = I.O.( / )
let lit = I.point
let of_int = I.of_int

external rd : 'a reader -> ('a -> float) -> I.t = "%apply"
