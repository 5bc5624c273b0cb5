(** Parameterised verification parts: the 1 Gb DDR2 and DDR3 devices
    of Figures 8 and 9.  The module builds nothing when it is
    initialised; {!Devices} includes it. *)

val mb : float -> float
(** [mb n] is [n * 2^20] bits. *)

val ddr2_1g :
  ?io_width:int -> ?datarate:float -> node:Vdram_tech.Node.t -> unit ->
  Vdram_core.Config.t
(** 1 Gb DDR2 for the Figure 8 verification.  [node] should be [N75]
    or [N65] (the typical high-volume nodes of the comparison);
    datarate defaults to 800 Mb/s/pin.  x4/x8 parts use a 1 KB page,
    x16 a 2 KB page, as the commodity parts did. *)

val ddr3_1g :
  ?io_width:int -> ?datarate:float -> node:Vdram_tech.Node.t -> unit ->
  Vdram_core.Config.t
(** 1 Gb DDR3 for the Figure 9 verification ([N65] or [N55]);
    datarate defaults to 1066 Mb/s/pin. *)
