(** The human-readable reports, factored out of the CLI.

    Both the one-shot commands and the serve daemon print through
    these functions, which is what makes a serve response byte-equal
    to the corresponding CLI stdout: same format strings, same
    formatter geometry, only the evaluation function differs — and
    {!Vdram_engine.Engine.eval} is contractually bit-identical to
    {!Vdram_core.Model.pattern_power}. *)

val power :
  eval:
    (Vdram_core.Config.t -> Vdram_core.Pattern.t -> Vdram_core.Report.t) ->
  Format.formatter ->
  Vdram_core.Config.t ->
  Vdram_core.Pattern.t ->
  unit
(** The [vdram power] report: configuration block, validation
    findings, the five-pattern current table, then the full report of
    the requested pattern.  [eval] is [Model.pattern_power] in the CLI
    and [Engine.eval engine] in the daemon. *)

val power_text :
  eval:
    (Vdram_core.Config.t -> Vdram_core.Pattern.t -> Vdram_core.Report.t) ->
  Vdram_core.Config.t ->
  Vdram_core.Pattern.t ->
  string * Vdram_core.Report.t list
(** {!power} rendered by {!to_string}, with every report it printed, in
    print order: the five table rows, then the requested pattern.  The
    CLI and the daemon refuse the text when one of them is not finite
    ({!Vdram_engine.Supervise.finite_report}). *)

val sensitivity :
  top:int -> Format.formatter -> Vdram_analysis.Sensitivity.t -> unit
(** The [vdram sensitivity] ranking, truncated to [top] entries. *)

val corners :
  config_name:string ->
  pattern_name:string ->
  Format.formatter ->
  Vdram_analysis.Corners.distribution ->
  unit
(** The [vdram corners] summary line and distribution. *)

val sweep : Format.formatter -> Vdram_analysis.Sweep.t -> unit
(** One-parameter sweep listing (no CLI twin; serve only). *)

val to_string : (Format.formatter -> 'a -> unit) -> 'a -> string
(** Render through a fresh formatter with the default geometry —
    the same margins [Format.std_formatter] starts with, so the string
    matches what the CLI writes to stdout. *)
