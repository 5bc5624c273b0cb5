(** Manufacturing-spread analysis: Monte-Carlo sampling of the
    technology parameters.

    The paper attributes the large vendor spread of Figures 8/9 to
    "the different technologies used to build the DRAMs and
    differences in the power efficiencies of the approach used by
    different DRAM vendors".  This module quantifies that story:
    every technology parameter, voltage and logic aggregate is drawn
    from a uniform band around its nominal value (deterministic
    generator, reproducible runs) and the resulting current
    distribution is summarised. *)

type distribution = {
  samples : int;           (** draws that completed *)
  failed : int;            (** draws lost to supervised failures *)
  spread : float;          (** half-width of the uniform parameter band *)
  mean : float;            (** A *)
  std : float;             (** A *)
  min : float;
  max : float;
  p05 : float;
  p95 : float;
}

val run :
  ?engine:Vdram_engine.Engine.t ->
  ?supervisor:Vdram_engine.Supervise.t ->
  ?samples:int ->
  ?spread:float ->
  ?seed:int ->
  ?pattern:Vdram_core.Pattern.t ->
  Vdram_core.Config.t ->
  distribution
(** Idd distribution of a pattern under parameter spread.  Defaults:
    200 samples, ±10 % uniform spread, seed 1, the device's Idd4R
    loop (the figure-8/9 measurement with the widest vendor spread).
    Each lens is scaled by a factor in [1 ± spread], so [spread] must
    lie in [\[0, 1)] to keep every factor positive (the CLI and the
    serve protocol reject other values).  Every draw's factors are
    generated sequentially (the generator is deterministic); each
    draw's configuration is built and evaluated on [engine]'s pool —
    the distribution is identical at any job count.  With [supervisor]
    a failed or non-finite draw is excluded from the statistics and
    counted in [failed]; fails only if {e every} draw fails. *)

val covers : distribution -> float -> bool
(** Whether a current (e.g. a vendor datasheet value) lies within the
    sampled [min, max] range. *)

val pp : Format.formatter -> distribution -> unit
