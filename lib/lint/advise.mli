(** The [vdram advise] driver: static dataflow analysis of the
    elaborated pattern loop (the V10xx band).

    Where lint (V08xx) and check (V09xx) judge whether a loop is
    {e legal}, advise judges whether it is {e wasteful} — without a
    simulation run.  The loop is replayed cyclically through the
    shared {!Vdram_sim.Legality} trace; on top of it ride per-command
    slack against the binding timing constraint, steady-state bus and
    bank utilization, row-buffer locality (activates that open a row
    no column command touches, [V1001]), oversized nop padding
    ([V1002]), a power-down-eligible idle-window inventory ([V1003]),
    and the loop's distance from a certified static energy floor
    ([V1004]) obtained by pricing its idle-stripped ideal schedule
    through the interval evaluator.

    Every proposed rewrite is verified before it is attached: the
    rewritten loop must replay legal at the authored node and across
    all fourteen roadmap generations, keep the schedulability the
    original had, and price strictly below the original through
    {!Vdram_sim.Energy_model}. *)

type slack_entry = {
  slot : int;
  command : Vdram_sim.Legality.command;
  slack : int;
      (** issue cycle minus the binding constraint's earliest legal
          cycle; negative for an under-spaced window *)
  binding : Vdram_sim.Legality.kind;
}

type idle_window = {
  start_slot : int;
  length : int;      (** cycles; wrap-around runs are merged *)
  eligible : bool;   (** long enough for CKE precharge power-down *)
  savings : float;   (** J per loop iteration if spent powered down *)
}

type summary = {
  pattern : string;          (** the loop in source syntax *)
  cycles : int;
  banks : int;
  schedulable : bool;
      (** no window of any kind under-spaced; measurement-mix loops
          (deliberately under-spaced column/precharge windows) are
          legal but not schedulable *)
  underspaced : int;         (** violated windows per replay *)
  usage : Vdram_sim.Legality.usage;
  slacks : slack_entry list; (** per constrained slot, steady state *)
  idle : idle_window list;
  energy : float;            (** simulated J per loop iteration *)
  floor : float;             (** certified static lower bound, J *)
  ideal_cycles : int;        (** loop length of the ideal schedule *)
  waste : float;             (** (energy - floor) / energy *)
}

type t = {
  report : Lint.report;
      (** advise findings (V10xx) in source order; parse/elaboration
          errors when the description is broken; the V08xx findings
          when the loop is illegal in the activate band (no advice on
          top of an illegal loop) *)
  summary : summary option;
      (** [None] when there is no elaborated pattern to analyze *)
}

val run : ?waste_threshold:float -> ?file:string -> string -> t
(** Advise on a description source.  [waste_threshold] (default 0.10)
    is the actual-vs-floor fraction above which [V1004] fires. *)

val run_file : ?waste_threshold:float -> string -> t
(** {!run} on a file; I/O failures become a [V0006] diagnostic. *)

val ideal_schedule :
  timing:Vdram_sim.Timing.t -> banks:int -> schedulable:bool ->
  Vdram_core.Pattern.t -> Vdram_core.Pattern.t option
(** ASAP compaction of the loop's commands under the shared replay
    discipline, tail-padded to the smallest cyclically legal length.
    [None] when compaction cannot beat the authored loop. *)

val static_bound : Vdram_core.Config.t -> Vdram_core.Pattern.t -> float
(** The certified static floor, J per loop iteration: the smaller of
    the interval lower endpoints of the ideal schedule and of the
    authored loop itself.  Sound by construction: never exceeds the
    simulated {!Vdram_sim.Energy_model.loop_energy} of the loop. *)

val sweep_legal : Vdram_core.Pattern.t -> bool
(** Whether the loop replays legal across all fourteen roadmap
    generations (the fix-it verification gate). *)

val pp_summary : Format.formatter -> summary -> unit

val to_json : t -> Vdram_json.Json.t
(** The {!Lint.to_json} object with an ["advise"] member appended
    when a summary exists. *)
