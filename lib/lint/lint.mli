(** The lint driver: run every static-analysis pass over a description
    and collect the diagnostics, source-ordered.

    The pipeline mirrors elaboration but never simulates:

    + parse (collecting [V00xx] syntax findings),
    + {!Passes.dimensions} over the raw AST ([V01xx]/[V02xx]),
    + error-accumulating elaboration ([V02xx], [V0701]) — every
      problem in one run, deduplicated against the dimensions pass by
      (code, span),
    + when the description elaborated without errors:
      {!Vdram_core.Validate} over the configuration, each finding
      placed back onto the statement it concerns ([V03xx]),
      {!Passes.finiteness}, {!Passes.timing}, {!Passes.floorplan},
      {!Passes.pattern} and {!Passes.bank_legality}
      ([V04xx]-[V08xx]). *)

type report = {
  file : string option;
  source : string array;            (** the input split into lines *)
  diagnostics : Vdram_diagnostics.Diagnostic.t list;  (** source order *)
}

val run : ?file:string -> string -> report
(** Lint a description source.  [file] labels the spans. *)

val run_file : string -> report
(** Lint a file; I/O failures become a [V0006] diagnostic. *)

val suppress : codes:string list -> report -> report
(** Drop warnings whose code is listed ([--allow]).  Errors are never
    suppressed. *)

val errors : report -> int
val warnings : report -> int

val pp_text : Format.formatter -> report -> unit
(** Compiler-style rendering of every diagnostic, with source excerpts
    and caret underlines. *)

val to_json : report -> Vdram_json.Json.t
(** One JSON object:
    [{"file":...,"errors":N,"warnings":M,"diagnostics":[...]}]. *)

val fixes : ?only:string -> report -> Vdram_diagnostics.Fix.t list
(** Every structured fix-it attached to the report's diagnostics, in
    diagnostic order.  [only] restricts the harvest to diagnostics
    with that code (backs [vdram lint --fix-only CODE]). *)

val apply_fixes : ?only:string -> report -> string * int
(** The report's source with all non-overlapping fix-its applied, and
    how many were applied (see {!Vdram_diagnostics.Fix.apply}).
    [only] as in {!fixes}. *)

val preview_fixes : ?context:int -> ?only:string -> report -> (string * int) option
(** A unified diff of what {!apply_fixes} would change, and how many
    fix-its it covers; [None] when no fix applies.  Backs
    [vdram lint --fix --dry-run].  [only] as in {!fixes}. *)

val to_sarif : report list -> string
(** A single SARIF 2.1.0 log covering the given reports (one run, one
    result per diagnostic, fix-its as [fixes]). *)

val exit_code : ?deny_warnings:bool -> report list -> int
(** The [vdram lint] exit-code contract: [2] when any report carries
    errors, [1] when [deny_warnings] and any report carries warnings,
    [0] otherwise. *)
