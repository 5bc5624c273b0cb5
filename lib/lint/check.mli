(** The [vdram check] driver: abstract interpretation of the energy
    model over a configuration box.

    Where [vdram lint] inspects one concrete configuration, check
    proves facts about a whole neighbourhood of them: guaranteed
    power/current/energy-per-bit bounds over the declared lens scale
    ranges, per-lens monotonicity certificates (the contract a search
    pruner needs to discard dominated candidates soundly), and
    whole-sweep legality of the pattern loop across the fourteen
    roadmap generations ([V09xx]).  Findings are ordinary
    {!Vdram_diagnostics.Diagnostic.t} values inside a {!Lint.report},
    so every lint renderer — text, JSON, SARIF, fix-its — applies. *)

type t = {
  report : Lint.report;
      (** check findings ([V09xx]) in source order; parse or
          elaboration errors when the description is broken *)
  certificate : Vdram_absint.Certificate.t option;
      (** [None] exactly when the description did not elaborate *)
}

val default_axes : unit -> Vdram_absint.Abox.axis list
(** The default certified box: the voltage and interface lenses, each
    over its group's declared default range. *)

val metric_for : Vdram_core.Pattern.t -> Vdram_absint.Monotone.metric
(** Energy per bit when the pattern moves data, average power
    otherwise. *)

type gen_result = {
  gen : Vdram_tech.Roadmap.t;
  timing : Vdram_sim.Timing.t;  (** {!Vdram_sim.Timing.of_generation} *)
  viols : Vdram_sim.Legality.violation list;
      (** empty exactly when the loop is legal at [gen] *)
}

val roadmap_results : Vdram_core.Pattern.t -> gen_result list
(** The pattern loop replayed at each of the fourteen roadmap
    generations, in roadmap order.  Each bank-count group is cleared
    by one replay against the {!Vdram_sim.Timing.worst_case} of its
    members when that replay is legal, and replayed per generation
    otherwise.  The [V09xx] sweep and the verified fix-its of
    [vdram advise] both read it. *)

val run :
  ?axes:Vdram_absint.Abox.axis list ->
  ?splits:int ->
  ?max_cells:int ->
  ?samples:int ->
  ?seed:int ->
  ?file:string ->
  string ->
  t
(** Check a description source.  [axes] defaults to
    {!default_axes} ()); [splits] (default 4) is the branch-and-bound
    depth behind the bounds; [max_cells] (default 32) the deepest
    monotonicity partition; [samples] (default 0) the number of
    concrete random configurations drawn from the box and asserted
    inside the bounds, recorded in the certificate's [samples]
    entry; [seed] fixes the sample stream. *)

val run_file :
  ?axes:Vdram_absint.Abox.axis list ->
  ?splits:int ->
  ?max_cells:int ->
  ?samples:int ->
  ?seed:int ->
  string ->
  t
(** {!run} on a file; I/O failures become a [V0006] diagnostic. *)
