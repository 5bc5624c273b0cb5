(* Outward-rounded interval arithmetic: the abstract numeric domain of
   `vdram check`.

   An interval [lo, hi] stands for every real number between its
   endpoints *and* every IEEE double a concrete evaluation can produce
   from operands drawn from the operand intervals.  Soundness against
   concrete float evaluation follows by induction: if the concrete
   operands a and b lie within the operand intervals, the real result
   a op b lies within the real-interval result, and the rounded result
   fl(a op b) is at most half an ulp away — the two ulps of outward
   widening applied to every computed endpoint absorb both the
   endpoint computation's own rounding and the concrete evaluation's.

   NaN never survives: any operation whose endpoint arithmetic
   produces NaN (inf - inf, 0 * inf, division by an interval
   containing zero) widens to [-inf, +inf] ("top"). *)

type t = {
  lo : float;
  hi : float;
}

let top = { lo = Float.neg_infinity; hi = Float.infinity }

let is_top t = t.lo = Float.neg_infinity && t.hi = Float.infinity

(* Two ulps of outward rounding per computed endpoint; infinite
   endpoints stay put (Float.pred infinity would *shrink* the bound).

   The steps move the IEEE bit pattern instead of calling [Float.pred]
   twice: read as a signed integer, the bits of a non-negative double
   grow with its value and those of a negative one with its magnitude,
   so two ulps are two integer steps.  Two cases need care: steps that
   cross zero (+0 and -0 are one ulp apart, as in [Float.pred]), and
   steps past the largest finite double, which land on the infinity
   instead of the NaN patterns beyond it. *)
let pos_inf_bits = Int64.bits_of_float Float.infinity
let neg_inf_bits = Int64.bits_of_float Float.neg_infinity

let down x =
  if not (Float.is_finite x) then x
  else
    let b = Int64.bits_of_float x in
    if b > 1L then Int64.float_of_bits (Int64.sub b 2L)
    else if b >= 0L then
      (* +0 or the smallest positive subnormal: below zero by 2 - b. *)
      Int64.float_of_bits (Int64.logor Int64.min_int (Int64.sub 2L b))
    else
      let r = Int64.add b 2L in
      if r > neg_inf_bits then Float.neg_infinity else Int64.float_of_bits r

let up x =
  if not (Float.is_finite x) then x
  else
    let b = Int64.bits_of_float x in
    if b >= 0L then
      let r = Int64.add b 2L in
      if r > pos_inf_bits then Float.infinity else Int64.float_of_bits r
    else if b < Int64.add Int64.min_int 2L then
      (* -0 or the smallest negative subnormal: above zero by 2 minus
         its magnitude. *)
      Int64.float_of_bits (Int64.sub 2L (Int64.sub b Int64.min_int))
    else Int64.float_of_bits (Int64.sub b 2L)

(* Normalising constructor: NaN endpoints widen to the corresponding
   infinity, inverted endpoints are swapped. *)
let make lo hi =
  let lo = if Float.is_nan lo then Float.neg_infinity else lo in
  let hi = if Float.is_nan hi then Float.infinity else hi in
  if lo <= hi then { lo; hi } else { lo = hi; hi = lo }

(* An exact (already-contained) pair: no outward rounding. *)
let v lo hi = make lo hi

(* A computed pair: outward rounding pays for the endpoint arithmetic. *)
let computed lo hi =
  let i = make lo hi in
  { lo = down i.lo; hi = up i.hi }

let point x = if Float.is_nan x then top else { lo = x; hi = x }

let zero = point 0.0
let one = point 1.0

let of_int n = point (float_of_int n)

let is_point t = t.lo = t.hi

let contains t x =
  if Float.is_nan x then is_top t else t.lo <= x && x <= t.hi

let subset a b = b.lo <= a.lo && a.hi <= b.hi

let hull a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let width t = t.hi -. t.lo

let mid t =
  if is_point t then t.lo
  else
    let m = t.lo +. (0.5 *. (t.hi -. t.lo)) in
    if Float.is_finite m then m else 0.0

let split t =
  let m = mid t in
  ({ lo = t.lo; hi = m }, { lo = m; hi = t.hi })

let neg t = { lo = -.t.hi; hi = -.t.lo }

let add a b = computed (a.lo +. b.lo) (a.hi +. b.hi)

let sub a b = computed (a.lo -. b.hi) (a.hi -. b.lo)

(* Endpoint products; 0 * inf yields NaN, which [make] absorbs into
   top via the computed-endpoint path. *)
let mul a b =
  let p1 = a.lo *. b.lo
  and p2 = a.lo *. b.hi
  and p3 = a.hi *. b.lo
  and p4 = a.hi *. b.hi in
  if
    Float.is_nan p1 || Float.is_nan p2 || Float.is_nan p3 || Float.is_nan p4
  then top
  else
    computed
      (Float.min (Float.min p1 p2) (Float.min p3 p4))
      (Float.max (Float.max p1 p2) (Float.max p3 p4))

(* Division widens to top as soon as the divisor can be zero: the
   concrete evaluation could produce any magnitude (or an infinity). *)
let div a b =
  if b.lo <= 0.0 && b.hi >= 0.0 then top
  else
    let q1 = a.lo /. b.lo
    and q2 = a.lo /. b.hi
    and q3 = a.hi /. b.lo
    and q4 = a.hi /. b.hi in
    if
      Float.is_nan q1 || Float.is_nan q2 || Float.is_nan q3 || Float.is_nan q4
    then top
    else
      computed
        (Float.min (Float.min q1 q2) (Float.min q3 q4))
        (Float.max (Float.max q1 q2) (Float.max q3 q4))

let scale f t = mul (point f) t

(* x^2 is non-negative: tighter than [mul t t] when t crosses zero. *)
let sq t =
  if t.lo >= 0.0 then computed (t.lo *. t.lo) (t.hi *. t.hi)
  else if t.hi <= 0.0 then computed (t.hi *. t.hi) (t.lo *. t.lo)
  else
    let m = Float.max (-.t.lo) t.hi in
    computed 0.0 (m *. m)

(* min / max are exact: the float result is one of the operands. *)
let min_ a b = { lo = Float.min a.lo b.lo; hi = Float.min a.hi b.hi }
let max_ a b = { lo = Float.max a.lo b.lo; hi = Float.max a.hi b.hi }

let is_finite t = Float.is_finite t.lo && Float.is_finite t.hi

(* Relative width against the larger endpoint magnitude; infinite
   intervals compare wider than any finite one. *)
let relative_width t =
  if not (is_finite t) then Float.infinity
  else
    let m = Float.max (Float.abs t.lo) (Float.abs t.hi) in
    if m = 0.0 then 0.0 else width t /. m

let pp ppf t =
  if is_point t then Format.fprintf ppf "%.6g" t.lo
  else Format.fprintf ppf "[%.6g, %.6g]" t.lo t.hi

let to_string t = Format.asprintf "%a" pp t

(* Local-open operators: [Interval.O.(a + b * c)]. *)
module O = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
end
