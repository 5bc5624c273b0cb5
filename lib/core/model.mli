(** The Figure 4 pipeline: from a device description and an operating
    pattern to currents, power and breakdown. *)

val background_power : Config.t -> float
(** Power burned in every cycle: clock distribution, always-on logic
    and the constant current sink — the no-operation floor. *)

type state =
  | Active_standby     (** banks open, clock running (Idd3N view) *)
  | Precharge_standby  (** all banks closed, clock running (Idd2N) *)
  | Power_down         (** clock stopped, DLL holding (Idd2P-style) *)
  | Self_refresh       (** power-down plus internal refresh (Idd6) *)

val state_name : state -> string

val state_power : Config.t -> state -> float
(** Device power in a standby state.  The model is capacitive-only
    (no leakage, as in the paper), so active and precharge standby
    coincide; power-down retains the constant sinks plus a residual
    quarter of the clocked background; self-refresh adds the internal
    refresh row cycling. *)

val rows_per_refresh : Config.t -> float
(** Rows one refresh command must restore: every bank refreshes one
    row per 8k-row slice of its address space. *)

val refresh_energy : Config.t -> float
(** Energy of one refresh command: {!rows_per_refresh} row cycles. *)

val refresh_power : Config.t -> float
(** Average power of distributed refresh: one refresh command
    ({!refresh_energy}) every [Spec.trefi]. *)

val powerdown_power : Config.t -> float
(** [state_power cfg Power_down]. *)

val idd5b : Config.t -> float
(** Burst-refresh current (datasheet Idd5B view): refresh commands
    back-to-back at [Spec.trfc], i.e. one {!refresh_energy} every
    tRFC on top of the background, amperes. *)

val op_counts : Pattern.t -> (Operation.kind * int) list
(** Non-zero command counts of one loop iteration, in [Operation.all]
    order.  [Nop] never appears: its energy is the background floor. *)

val loop_time : Spec.t -> Pattern.t -> float
(** Period of one loop iteration, seconds: pattern cycles over the
    control clock.  The pattern-mix stage and the abstract interpreter
    (`vdram check`) both read this seam, so their rates agree. *)

val bits_per_loop : Spec.t -> Pattern.t -> float
(** Data bits one loop iteration transports: data commands times
    {!Spec.bits_per_column_command}.  Zero for data-less patterns. *)

val version : string
(** A stamp that changes whenever the model's physics changes.  The
    staged engine writes it into its persistent cache header, so
    results computed by an older model are discarded, never served. *)

val physics_projection : Config.t -> Config.t
(** The configuration with its [name] cleared — exactly the fields the
    physics reads.  Two configurations with equal projections produce
    bit-identical stage outputs; the engine fingerprints this value to
    key its extraction and pattern-mix caches. *)

type extraction
(** The capacitance-extraction stage: per-operation contribution lists
    and their supply energies, derived once from a configuration and
    stored as the per-circuit-group segments that produced them, with
    each contribution's supply energy precomputed and its breakdown
    label interned to a dense id.  The pattern-mix stage only reads
    this record, so several patterns can be evaluated — or the record
    cached behind a content key, as [Vdram_engine] does — without
    re-extracting; and {!extract_delta} can splice the clean segments
    of a base extraction, recomputing only dirtied groups. *)

val extract :
  ?activated_bits:int ->
  ?geometry:Vdram_floorplan.Array_geometry.t ->
  Config.t ->
  extraction
(** Run capacitance extraction for every operation.  [activated_bits]
    and [geometry] optionally feed in an already-resolved page size
    and array geometry (see {!Operation.ctx}). *)

type delta_outcome = {
  dirtied : Vdram_circuits.Contribution.group list;
      (** groups the change can reach, re-extracted *)
  spliced : int;  (** clean groups shared from the base extraction *)
  fallback : bool;
      (** a structural mismatch abandoned the splice for a full
          {!extract} (the result is still exact) *)
}

val extract_delta :
  ?activated_bits:int ->
  ?geometry:Vdram_floorplan.Array_geometry.t ->
  base:extraction ->
  Config.t ->
  extraction * delta_outcome
(** Incremental extraction against a cached base: re-extracts only the
    circuit groups the change can reach and splices the rest from the
    base.  A group is dirty when a field in its read set changed — the
    set {!Read_set.trace} reads off the shared charge models, traced
    once per base and domain — or when one of the inputs its models
    read without tracing changed (see {!Read_set.dirty}).  Bit-identical
    to {!extract} on the same configuration — clean segments hold the
    same floats the full extraction would recompute, and totals are
    re-summed in the same order.  When generator efficiencies change,
    spliced segments keep their contribution chunks and recompute
    supply-energy terms for exactly the segments drawing from a
    changed efficiency's domain, sharing the rest untouched. *)

val extraction_contributions :
  extraction -> Operation.kind -> Vdram_circuits.Contribution.t list
(** The cached equivalent of {!Operation.contributions}. *)

val extraction_energy : extraction -> Operation.kind -> float
(** The cached equivalent of {!Operation.energy}, a dense array
    lookup. *)

val background_power_staged : extraction -> Config.t -> float
(** {!background_power} from a prior extraction. *)

val pattern_power_staged : extraction -> Config.t -> Pattern.t -> Report.t
(** The pattern-mix stage: {!pattern_power} from a prior extraction,
    as a flat array kernel over the extraction's dense per-label
    terms.  Bit-identical to {!pattern_power} on the same
    configuration (breakdown ties may list in a different order). *)

val pattern_power : Config.t -> Pattern.t -> Report.t
(** Average power of a continuously repeating command loop:
    [background + sum over commands (count * energy / loop time)].
    Command energies include their bursts; the pattern is responsible
    for legal command spacing (the canned {!Pattern} loops are). *)

val idd : Config.t -> Pattern.t -> float
(** Supply current of a pattern, amperes. *)

val operation_power : Config.t -> Operation.kind -> float
(** Power when the operation repeats back-to-back at its natural rate:
    row operations at tRC, column operations at the gapless burst
    rate, [Nop] at the background floor.  Matches the datasheet view
    of Idd0 / Idd4 style figures. *)

val energy_per_bit : Config.t -> Pattern.t -> float option
(** Energy per transported data bit of a pattern, J/bit. *)
