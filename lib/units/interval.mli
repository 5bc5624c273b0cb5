(** Outward-rounded interval arithmetic, the abstract numeric domain
    of [vdram check].

    An interval stands for every real between its endpoints and every
    IEEE double a concrete evaluation can produce from operands drawn
    from the operand intervals: each computed endpoint is widened
    outward by two ulps, which absorbs both the endpoint arithmetic's
    own rounding and the half-ulp of the mirrored concrete operation.
    The two ulps are stepped on the double's bit pattern ({!down},
    {!up}), not by library calls.  Operations whose endpoint
    arithmetic degenerates (NaN, division by an interval containing
    zero) widen to [-inf, +inf] ("top"), so the domain is total and
    never unsound. *)

type t = private { lo : float; hi : float }

val down : float -> float
(** Two ulps below a finite double, exactly [Float.pred (Float.pred x)]
    (so [down 0.0] is [-2] times the smallest subnormal and [down
    (-. max_float)] is [neg_infinity]); infinities and NaN are
    returned unchanged.  The outward rounding of every computed lower
    endpoint. *)

val up : float -> float
(** Two ulps above a finite double, exactly [Float.succ (Float.succ
    x)]; infinities and NaN unchanged.  The outward rounding of every
    computed upper endpoint. *)

val top : t
val is_top : t -> bool

val v : float -> float -> t
(** [v lo hi] is the exact interval (no outward rounding): the caller
    asserts both endpoints are already contained.  NaN endpoints widen
    to the corresponding infinity; inverted endpoints are swapped. *)

val point : float -> t
(** Singleton interval; [point nan] is {!top}. *)

val zero : t
val one : t
val of_int : int -> t

val is_point : t -> bool
val contains : t -> float -> bool
val subset : t -> t -> bool
val hull : t -> t -> t
val width : t -> float
val relative_width : t -> float
val mid : t -> float
val split : t -> t * t
val is_finite : t -> bool

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Top as soon as the divisor interval contains zero. *)

val scale : float -> t -> t
val sq : t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Local-open operators: [Interval.O.(a + b * c)]. *)
module O : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
end
