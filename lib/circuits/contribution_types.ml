(* Labelled per-operation energy contributions: the record, the
   circuit groups and the float-only helpers.  The record is
   polymorphic in its energy so the float and the interval compilation
   of the charge models build the same one; [Contribution] adds eq. 1
   and the total at Vdd. *)

type 'e gen = {
  label : string;
  domain : Domains_types.domain;
  energy : 'e;
}

(* The circuit group a contribution bundle originates from: the
   granularity of the staged engine's incremental delta-extraction.
   One group per charge-model module (plus the DQ interface, which
   lives at the configuration level). *)
type group = Wordline | Sense_amp | Column | Bus | Interface | Logic

let groups = [ Wordline; Sense_amp; Column; Bus; Interface; Logic ]
let group_count = 6

let group_index = function
  | Wordline -> 0
  | Sense_amp -> 1
  | Column -> 2
  | Bus -> 3
  | Interface -> 4
  | Logic -> 5

let group_name = function
  | Wordline -> "wordline"
  | Sense_amp -> "sense-amp"
  | Column -> "column"
  | Bus -> "bus"
  | Interface -> "interface"
  | Logic -> "logic"

let v ~label ~domain ~energy = { label; domain; energy }

let by_label contributions =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl c.label) in
      Hashtbl.replace tbl c.label (prev +. c.energy))
    contributions;
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.sort (fun (_, a) (_, b) -> Float.compare b a) items
