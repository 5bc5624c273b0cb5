(** Predefined device configurations used throughout the paper's
    evaluation. *)

include module type of Parts
(** [mb] and the Figure 8/9 verification parts [ddr2_1g] and
    [ddr3_1g]; see {!Parts}. *)

val sdr_128m : Vdram_core.Config.t
(** 128 Mb SDR x16-166 in 170 nm — the old device of Fig 10/Table III. *)

val ddr_256m : Vdram_core.Config.t
(** 256 Mb DDR x16-400 in 110 nm. *)

val ddr3_2g : Vdram_core.Config.t
(** 2 Gb DDR3 x16-1333 in 55 nm — the contemporary device of
    Table III. *)

val ddr4_4g : Vdram_core.Config.t
(** 4 Gb DDR4 x16-2667 in 31 nm. *)

val ddr5_16g : Vdram_core.Config.t
(** 16 Gb DDR5 x16-5333 in 18 nm — the future device of Fig 10 /
    Table III (the paper calls it a hypothetical DDR5). *)

val table3_devices : Vdram_core.Config.t list
(** The three sensitivity-study devices: [sdr_128m; ddr3_2g;
    ddr5_16g]. *)
