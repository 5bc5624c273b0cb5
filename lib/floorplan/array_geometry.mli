(** Geometry of an array block (one bank) and its sub-arrays.

    An array block is a grid of sub-arrays separated by bitline
    sense-amplifier stripes (along the bitline direction) and local
    wordline driver stripes (along the wordline direction), per
    Figure 1.  The block dimensions are calculated from the bitline
    pitch, wordline pitch and the stripe widths (Section III.B.1). *)

type bitline_style = Open | Folded

type t = {
  style : bitline_style;
  bits_per_bitline : int;    (** cells on one bitline *)
  bits_per_lwl : int;        (** cells on one local wordline *)
  wl_pitch : float;          (** wordline repeat distance, m *)
  bl_pitch : float;          (** bitline repeat distance, m *)
  sa_stripe : float;         (** bitline sense-amplifier stripe width, m *)
  lwd_stripe : float;        (** local wordline driver stripe width, m *)
  subarrays_along_wl : int;  (** sub-arrays in the wordline direction *)
  subarrays_along_bl : int;  (** sub-arrays in the bitline direction *)
  csl_blocks : int;          (** array blocks sharing a column select line *)
}

val subarrays :
  bank_bits:float ->
  page_bits:int ->
  bits_per_bitline:int ->
  bits_per_lwl:int ->
  (int * int, [ `Page | `Bank ] * string) result
(** The sub-array grid of one bank, [(along_wl, along_bl)], or the
    division that does not work out: [`Page] when the page is not a
    whole number of local wordlines, [`Bank] when the bank is not a
    whole number of at least one sub-array row.  [bits_per_lwl] must be
    positive. *)

val derive :
  ?style:bitline_style ->
  ?csl_blocks:int ->
  bank_bits:float ->
  page_bits:int ->
  bits_per_bitline:int ->
  bits_per_lwl:int ->
  wl_pitch:float ->
  bl_pitch:float ->
  sa_stripe:float ->
  lwd_stripe:float ->
  unit ->
  t
(** Derive the sub-array grid of one bank: the page spans the block in
    the wordline direction ([page_bits / bits_per_lwl] sub-arrays) and
    the rest of the bank capacity stacks in the bitline direction.
    Raises [Invalid_argument] with {!subarrays}' message when the
    divisions don't work out. *)

(* Derived extents, all metres. *)

val lwl_length : t -> float
(** Local wordline length: [bits_per_lwl * bl_pitch]. *)

val bitline_length : t -> float
(** Physical bitline length: [bits_per_bitline * wl_pitch] (the
    wordline pitch is the cell height, which already embodies the
    fold of an 8F2 architecture). *)

val subarray_width : t -> float
(** Sub-array extent in the wordline direction. *)

val subarray_height : t -> float
(** Sub-array extent in the bitline direction. *)

val block_width : t -> float
(** Array-block extent along the wordline direction, including local
    wordline driver stripes. *)

val block_height : t -> float
(** Array-block extent along the bitline direction, including
    sense-amplifier stripes. *)

val block_area : t -> float

val master_wordline_length : t -> float
(** A master wordline spans the array block's wordline direction. *)

val csl_length : t -> float
(** A column select line spans [csl_blocks] array blocks in the
    bitline direction. *)

val madl_length : t -> float
(** Master array data lines span the array block in the bitline
    direction. *)

val cells : t -> float
(** Number of cells in the block. *)

val sense_amps : t -> float
(** Bitline sense-amplifiers in the block (pairs of bitlines for the
    open style count once; every sensed bitline has an amplifier
    share). *)

val lwd_count : t -> float
(** Local wordline drivers in the block. *)

val sa_area_share : t -> float
(** Share of the block area used by sense-amplifier stripes
    (paper: 8–15 % of die in a typical commodity DRAM). *)

val lwd_area_share : t -> float
(** Share of the block area used by local wordline driver stripes
    (paper: 5–10 %). *)

val pp : Format.formatter -> t -> unit
