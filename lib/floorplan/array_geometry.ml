(* Array-block geometry derived from pitches and stripe widths. *)

type bitline_style = Open | Folded

type t = {
  style : bitline_style;
  bits_per_bitline : int;
  bits_per_lwl : int;
  wl_pitch : float;
  bl_pitch : float;
  sa_stripe : float;
  lwd_stripe : float;
  subarrays_along_wl : int;
  subarrays_along_bl : int;
  csl_blocks : int;
}

let subarrays ~bank_bits ~page_bits ~bits_per_bitline ~bits_per_lwl =
  if page_bits mod bits_per_lwl <> 0 then
    Error (`Page, "page not a multiple of local WL")
  else
    let bits_per_subarray_row = float_of_int (page_bits * bits_per_bitline) in
    let rows = bank_bits /. bits_per_subarray_row in
    if Float.rem rows 1.0 <> 0.0 || rows < 1.0 then
      Error (`Bank, "bank not a whole number of sub-array rows")
    else Ok (page_bits / bits_per_lwl, int_of_float rows)

let derive ?(style = Open) ?(csl_blocks = 1) ~bank_bits ~page_bits
    ~bits_per_bitline ~bits_per_lwl ~wl_pitch ~bl_pitch ~sa_stripe
    ~lwd_stripe () =
  let along_wl, along_bl =
    match subarrays ~bank_bits ~page_bits ~bits_per_bitline ~bits_per_lwl with
    | Ok grid -> grid
    | Error (_, msg) -> invalid_arg ("Array_geometry.derive: " ^ msg)
  in
  {
    style;
    bits_per_bitline;
    bits_per_lwl;
    wl_pitch;
    bl_pitch;
    sa_stripe;
    lwd_stripe;
    subarrays_along_wl = along_wl;
    subarrays_along_bl = along_bl;
    csl_blocks;
  }

let lwl_length t = float_of_int t.bits_per_lwl *. t.bl_pitch

let bitline_length t =
  (* The wordline pitch is the cell height (cell_factor / 2 * F), so
     the fold of an 8F2 architecture is already embodied in it: a
     bitline of n cells spans n wordline pitches in either style. *)
  float_of_int t.bits_per_bitline *. t.wl_pitch

let subarray_width t = lwl_length t

let subarray_height t = bitline_length t

let block_width t =
  let n = float_of_int t.subarrays_along_wl in
  (n *. subarray_width t) +. ((n +. 1.0) *. t.lwd_stripe)

let block_height t =
  let n = float_of_int t.subarrays_along_bl in
  (n *. subarray_height t) +. ((n +. 1.0) *. t.sa_stripe)

let block_area t = block_width t *. block_height t

let master_wordline_length t = block_width t

let csl_length t = float_of_int t.csl_blocks *. block_height t

let madl_length t = block_height t

let cells t =
  float_of_int t.bits_per_bitline
  *. float_of_int t.bits_per_lwl
  *. float_of_int t.subarrays_along_wl
  *. float_of_int t.subarrays_along_bl

let sense_amps t =
  (* One amplifier per sensed bitline; folded architectures hold the
     amplifier for a true/complement pair within the same sub-array,
     open architectures sense pairs from adjacent sub-arrays — either
     way there is one amplifier per page bit per sub-array row. *)
  float_of_int (t.subarrays_along_wl * t.bits_per_lwl)
  *. float_of_int t.subarrays_along_bl

let lwd_count t =
  float_of_int t.subarrays_along_wl
  *. float_of_int (t.subarrays_along_bl * t.bits_per_bitline)

let sa_area_share t =
  let n = float_of_int t.subarrays_along_bl in
  (n +. 1.0) *. t.sa_stripe /. block_height t

let lwd_area_share t =
  let n = float_of_int t.subarrays_along_wl in
  (n +. 1.0) *. t.lwd_stripe /. block_width t

let pp ppf t =
  let um v = Vdram_units.Si.format_eng ~unit_symbol:"m" v in
  Format.fprintf ppf
    "@[<v>array block: %d x %d sub-arrays of %dx%d cells (%s)@,\
     sub-array %s x %s, block %s x %s@,\
     SA stripe share %.1f%%, LWD stripe share %.1f%%@]"
    t.subarrays_along_wl t.subarrays_along_bl t.bits_per_lwl
    t.bits_per_bitline
    (match t.style with Open -> "open" | Folded -> "folded")
    (um (subarray_width t)) (um (subarray_height t))
    (um (block_width t)) (um (block_height t))
    (100.0 *. sa_area_share t)
    (100.0 *. lwd_area_share t)
