(* Order statistics over float samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks ([p] in 0..100); nan on
   an empty sample. *)
let percentile a p =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let x = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = percentile a 50.0

(* Python's [statistics.quantiles(data, n=4)] (method "exclusive"):
   the three quartile cut points. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let n = 4 and m = ld + 1 in
  List.init 3 (fun k ->
      let i = k + 1 in
      let j = i * m / n in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * n) in
      ((d.(j - 1) *. float_of_int (n - delta)) +. (d.(j) *. float_of_int delta))
      /. float_of_int n)

(* Interquartile range as a share of the median: the run-to-run spread
   the compare command checks against a metric's bound. *)
let spread a =
  match quartiles a with
  | [ q1; q2; q3 ] -> if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2
  | _ -> assert false
