(** Abstract configuration boxes for [vdram check]: a nominal
    configuration plus per-lens scale-factor intervals.

    A box concretises to every configuration obtained by applying
    each axis lens at some scale inside its interval, in axis order.
    The lens inventory touches pairwise disjoint fields, so any
    scalar the physics reads is moved by at most one axis and
    {!field} returns its exact float range; getters moved by several
    axes (not produced by the stock inventory) fall back to widened
    corner enumeration.  {!tech}, {!domains} and {!logic} read one
    sub-record and consult only the axes whose corner configurations
    replaced it (a physical comparison made once per box), so a
    technology read in a box of voltage axes calls its getter once. *)

type axis = private { lens : Vdram_analysis.Lenses.t; scale : Vdram_units.Interval.t }

type t

val axis : Vdram_analysis.Lenses.t -> lo:float -> hi:float -> axis
(** An axis over a scale-factor interval.  Raises [Invalid_argument]
    unless [0 < lo <= hi] and both are finite. *)

val default_axis : Vdram_analysis.Lenses.t -> axis
(** {!axis} over the lens's declared default range. *)

val v : base:Vdram_core.Config.t -> axis list -> t
(** Raises [Invalid_argument] on duplicate lens axes. *)

val base : t -> Vdram_core.Config.t
val axes : t -> axis list
val dim : t -> int

val field : t -> (Vdram_core.Config.t -> float) -> Vdram_units.Interval.t
(** Range of a scalar getter over the box: exact for getters moved by
    at most one axis, a widened corner hull otherwise, and a point
    for getters no axis moves.  Consults every axis. *)

val tech : t -> (Vdram_tech.Params.t -> float) -> Vdram_units.Interval.t
(** [field] of a getter that reads only the technology record.  Only
    the axes whose corners replaced that record are consulted; the
    result is the one [field] gives. *)

val domains :
  t -> (Vdram_circuits.Domains.t -> float) -> Vdram_units.Interval.t
(** [field] of a getter that reads only the voltage-domain record,
    consulting only the axes whose corners replaced it. *)

val logic :
  t -> int -> (Vdram_circuits.Logic_block.t -> float) -> Vdram_units.Interval.t
(** [logic t i sel] is [field] of [sel] on logic block [i], consulting
    only the axes whose corners replaced the logic list. *)

val moved : t -> bool
(** Whether some read of this box has met an axis that moves the value
    it reads.  While [false], every read so far returned the base
    configuration's value as a point, whatever the scales. *)

val instantiate : t -> float list -> Vdram_core.Config.t
(** Concrete member of the box at the given per-axis scales (one per
    axis, each inside its interval — [Invalid_argument] otherwise). *)

val nominal_scales : t -> float list
(** Per-axis scales of a canonical member: 1.0 where the axis interval
    contains it, the midpoint otherwise. *)

val split : t -> (t * t) option
(** Bisect across the widest axis; [None] if every axis is a point. *)
