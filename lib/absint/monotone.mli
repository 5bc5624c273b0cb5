(** Monotonicity certificates: which lens directions provably move a
    metric one way over a scale range.

    The proof partitions the range into K closed cells, evaluates
    the metric abstractly on each, and compares every cell with the
    one-after-next (adjacent cells share a boundary point, so the
    neighbour comparison is vacuous).  A closed chain certifies: for
    scales [x < y] with [y - x >= resolution], metric(x) <= metric(y)
    (increasing) or >= (decreasing).  A search-space pruner may then
    discard any candidate at least one resolution step on the wrong
    side of a better one. *)

type metric = Aeval.metric = Energy_per_bit | Power

val metric_name : metric -> string

type direction = Increasing | Decreasing

val direction_name : direction -> string

type certificate = {
  lens : string;
  group : Vdram_analysis.Lenses.group;
  metric : metric;
  lo : float;                  (** certified scale range, inclusive *)
  hi : float;
  direction : direction option;
      (** [None]: not certified either way at the deepest partition *)
  cells : int;                 (** certifying (or deepest tried) K *)
  resolution : float;          (** certified minimum separation *)
}

val certify :
  ?max_cells:int ->
  base:Vdram_core.Config.t ->
  lens:Vdram_analysis.Lenses.t ->
  lo:float ->
  hi:float ->
  metric:metric ->
  Vdram_core.Pattern.t ->
  certificate
(** Certify one lens direction; the partition is refined adaptively
    (4, 8, 16, ... up to [max_cells], default 32) until the chain
    closes or the budget is exhausted.  Each cell evaluates only the
    metric ({!Aeval.metric}).  When a chain fails and no cell read a
    field the lens moves, the budget counts as exhausted at once: for
    a lens setter monotone in its scale, every finer cell would
    evaluate the same interval. *)
