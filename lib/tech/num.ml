(* The number the charge models compute with, for the float
   compilation.  Devices, the charge models under lib/circuits and the
   per-operation plan in lib/core are written once against a [Num] and
   compiled twice: here for floats, and in lib/absint against an
   interval [Num] for [vdram check].

   Rules for that shared source, which the interval compilation
   enforces:
   - a [Num.t] is built and combined only through [Num]: [+ * /],
     [lit] for a constant no lens moves, [of_int];
   - integer arithmetic goes through [Stdlib];
   - no branch on a [Num.t] (branch on geometry, flags and lists);
   - every scalar a lens can move is read through [rd], with a
     literal selector, from a reader of the record it lives in.

   Every operation is an [external] primitive, so each call site
   compiles to the bare float instruction even across the units of an
   [-opaque] build, and [rd r (fun r -> r.f)] is just [r.f]: the float
   compilation is the arithmetic the models always did. *)

type t = float
type 'a reader = 'a

external ( + ) : float -> float -> float = "%addfloat"
external ( * ) : float -> float -> float = "%mulfloat"
external ( / ) : float -> float -> float = "%divfloat"
external lit : float -> float = "%identity"
external of_int : int -> float = "%floatofint"
external rd : 'a -> ('a -> float) -> float = "%revapply"
