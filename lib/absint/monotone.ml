(* Monotonicity certificates for lens directions.

   To certify that a metric is monotone along a lens over a scale
   range, partition the range into K cells and evaluate the metric
   abstractly on each single-axis cell box.  Adjacent closed cells
   share their boundary point, so comparing neighbours is vacuous;
   instead the certificate compares every cell with the
   one-after-next: if sup I(k) <= inf I(k+2) for all k, then for any
   two scales x < y at least two cells apart — i.e. y - x >= 2 * delta
   with delta = (hi - lo) / K — the metric at x is at most the metric
   at y.  That is monotonicity at resolution 2 * delta, which is what
   a search-space pruner needs: it may discard any candidate at least
   one resolution step on the wrong side of a better one.

   The direction is guessed from concrete endpoint samples, then
   proved abstractly; K is refined adaptively (4, 8, 16, 32) until
   the chain closes or the budget is exhausted.  A cell prices only
   the metric (Aeval.metric), and an axis whose cells read no field
   it moves is exhausted on its first failed chain. *)

module I = Vdram_units.Interval
module Config = Vdram_core.Config
module Model = Vdram_core.Model
module Report = Vdram_core.Report
module Lenses = Vdram_analysis.Lenses

type metric = Aeval.metric = Energy_per_bit | Power

let metric_name = function
  | Energy_per_bit -> "energy_per_bit"
  | Power -> "power"

type direction = Increasing | Decreasing

let direction_name = function
  | Increasing -> "increasing"
  | Decreasing -> "decreasing"

type certificate = {
  lens : string;
  group : Lenses.group;
  metric : metric;
  lo : float;
  hi : float;
  direction : direction option;
      (** [None]: not certified either way at the deepest resolution *)
  cells : int;       (** K of the certifying partition (or deepest tried) *)
  resolution : float;
      (** certified minimum separation, [2 * (hi - lo) / cells] *)
}

let concrete_metric metric base pattern =
  let report = Model.pattern_power base pattern in
  match metric with
  | Power -> Some report.Report.power
  | Energy_per_bit -> report.Report.energy_per_bit

(* Cell k of K over [lo, hi]; endpoints computed the same way for
   cell k's hi and cell k+1's lo so the partition has no gaps. *)
let cell_bounds ~lo ~hi ~cells k =
  let f i = lo +. ((hi -. lo) *. (float_of_int i /. float_of_int cells)) in
  let a = if k = 0 then lo else f k in
  let b = if k = cells - 1 then hi else f (k + 1) in
  (a, b)

(* The metric on each of the K cells, and whether any cell read a
   field its axis moves; [None] as soon as a cell's metric is not
   finite. *)
let cell_intervals ~base ~lens ~lo ~hi ~cells ~metric pattern =
  let moved = ref false in
  let rec go k acc =
    if k = cells then Some (Array.of_list (List.rev acc), !moved)
    else
      let a, b = cell_bounds ~lo ~hi ~cells k in
      let box = Abox.v ~base [ Abox.axis lens ~lo:a ~hi:b ] in
      match Aeval.metric box pattern metric with
      | Some i when I.is_finite i ->
        if Abox.moved box then moved := true;
        go (k + 1) (i :: acc)
      | _ -> None
  in
  go 0 []

let chain_holds ~direction intervals =
  let n = Array.length intervals in
  let ordered a b =
    match direction with
    | Increasing -> (a : I.t).hi <= (b : I.t).lo
    | Decreasing -> (b : I.t).hi <= (a : I.t).lo
  in
  let holds = ref true in
  for k = 0 to n - 3 do
    if not (ordered intervals.(k) intervals.(k + 2)) then holds := false
  done;
  !holds

let certify ?(max_cells = 32) ~base ~lens ~lo ~hi ~metric pattern =
  let group = lens.Lenses.group in
  let name = lens.Lenses.name in
  let fail cells =
    {
      lens = name;
      group;
      metric;
      lo;
      hi;
      direction = None;
      cells;
      resolution = 2.0 *. ((hi -. lo) /. float_of_int cells);
    }
  in
  (* Guess the direction from concrete endpoint samples: cheap, and a
     wrong guess only costs a failed certificate, never soundness. *)
  let sample s = concrete_metric metric (Lenses.scale lens s base) pattern in
  match (sample lo, sample hi) with
  | Some at_lo, Some at_hi ->
    let direction = if at_lo <= at_hi then Increasing else Decreasing in
    let rec refine cells =
      if cells > max_cells then fail max_cells
      else
        match
          cell_intervals ~base ~lens ~lo ~hi ~cells ~metric pattern
        with
        | None -> fail cells
        | Some (intervals, moved) ->
          if chain_holds ~direction intervals then
            {
              lens = name;
              group;
              metric;
              lo;
              hi;
              direction = Some direction;
              cells;
              resolution = 2.0 *. ((hi -. lo) /. float_of_int cells);
            }
          else if not moved then
            (* No cell read a field the axis moves: every read
               returned its base value at every partition point.  A
               setter monotone in the scale, the assumption
               [Abox.field] already rests on, then returns it between
               those points too, so each cell of every finer partition
               evaluates to this same interval, on which the chain
               has just failed. *)
            fail max_cells
          else refine (cells * 2)
    in
    refine 4
  | _ -> fail 4
