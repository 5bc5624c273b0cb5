(* The number the charge models compute with, for the read-set
   compilation ([Traced], which lib/core/dune wraps from the shared
   source and [Read_set] runs): the set of fields a value was computed
   from, as a bitmask.  [+ * /] are union, constants are empty.  A
   reader applies its selector to a sentinel record whose traced fields
   hold their own codes, and [bit] refuses every other value, so a
   selector that computes instead of reading one field, or reads a
   field no sentinel codes, fails loudly. *)

type t = int
type 'a reader = ('a -> float) -> t

external ( + ) : int -> int -> int = "%orint"
external ( * ) : int -> int -> int = "%orint"
external ( / ) : int -> int -> int = "%orint"

let lit (_ : float) = 0
let of_int (_ : int) = 0

external rd : 'a reader -> ('a -> float) -> t = "%apply"

(* Field [i]'s code: an integer (an [int] field can hold it too) far
   above every physical value, spaced so that no sum, difference,
   product or ratio of codes, nor a code moved by a small constant, is
   a code. *)
let first = 0x1p40
let step = 7919.0
let code i = first +. (float_of_int i *. step)

let bit v =
  let i = Float.to_int ((v -. first) /. step) in
  if i >= 0 && i < Sys.int_size - 1 && code i = v then 1 lsl i
  else invalid_arg (Printf.sprintf "Trace_num.bit: %h is no field's code" v)
