(** Staged evaluation engine: the Figure 4 pipeline split into pure,
    content-cached stages, with a domain pool for batch evaluation.

    A model run decomposes as

    {v config -> geometry -> extraction -> pattern mix -> report v}

    and each stage output is memoized behind a {!Fingerprint.t} of
    exactly the inputs that stage reads.  Perturbing a voltage lens
    therefore re-runs extraction and mix but replays geometry from
    cache; re-evaluating one configuration against several patterns
    replays both geometry and extraction.  Caches are striped over
    independently locked shards, so worker domains rarely contend.
    See [doc/ENGINE.md] for the stage graph, the cache keys, the
    on-disk format and the determinism contract. *)

type t

exception Stage_error of string * exn
(** A stage failure under supervision: the stage name ([geometry],
    [extraction] or [mix]) the exception escaped from, and the
    original exception.  Only raised while a {!Supervise} item context
    is active ({!Faults.supervised}); outside supervision stage
    exceptions propagate unwrapped, exactly as they always have. *)

val create : ?jobs:int -> ?store:Store.t -> ?delta:bool -> unit -> t
(** A fresh engine.  [jobs] bounds the domain pool used by
    {!map_jobs}; it defaults to {!Pool.default_jobs} (which honours
    [VDRAM_JOBS]).  [store] attaches a persistent cross-process cache:
    extraction and pattern-mix snapshots are loaded from it
    immediately and written back by {!flush_store}.  A stale or
    corrupt snapshot is not silently discarded: the store quarantines
    the file, and {!discarded} counts the stages that started cold
    because of it.  [delta] (default [true]) enables the incremental
    delta-extraction path taken when a caller passes [?base]; turning
    it off forces every extraction miss through the full extract —
    results are bit-identical either way (the benchmark ledger's
    corners check uses a delta-off engine as its reference). *)

val serial : unit -> t
(** [create ~jobs:1 ()] — the drop-in default the analysis drivers use
    when no engine is supplied. *)

val jobs : t -> int

(** {1 Persistent store} *)

val store_open : ?dir:string -> ?max_bytes:int -> unit -> Store.t
(** A store handle stamped with the current model + fingerprint-scheme
    version, rooted at [dir] (default {!Store.default_dir}), size-capped
    at [max_bytes] when given (default [VDRAM_CACHE_MAX_BYTES]).  Pass
    it to {!create} to warm an engine from disk. *)

val store : t -> Store.t option

val preloaded : t -> int * int
(** [(extraction, mix)] entry counts loaded from the store at
    {!create} time; [(0, 0)] without a store or on a cold cache. *)

val discarded : t -> int
(** How many stage snapshots (0..2) were rejected — corrupt, truncated
    or version-skewed — and quarantined during the {!create} preload.
    Those stages start cold and recompute; see {!Store.stats} on the
    attached store for the full I/O picture. *)

val flush_store : t -> unit
(** Write the extraction and pattern-mix caches back to the engine's
    store (no-op without one).  Only stages that have missed since the
    last flush are written — a fully warm run re-saves nothing, and a
    long-lived engine (the serve daemon) can flush periodically
    without rewriting unchanged snapshots.  Snapshots are written
    atomically, so a crash mid-flush leaves the previous snapshot
    intact. *)

val store_dirty : t -> bool
(** Whether {!flush_store} would write anything: the engine has a
    store and at least one stage has missed since the last flush.
    Lets a long-running caller skip the flush entirely on a quiet
    interval. *)

(** {1 Stages} *)

type geometry = {
  geometry : Vdram_floorplan.Array_geometry.t;
  page_bits : int;
  activated_bits : int;
  die_area : float;          (** m^2 *)
  array_efficiency : float;  (** fraction of die that is cell array *)
}

val geometry : t -> Vdram_core.Config.t -> geometry
(** Geometry/floorplan stage.  Keyed on the floorplan and the
    activation fraction — the only configuration fields it reads. *)

val extraction :
  ?base:Vdram_core.Model.extraction ->
  t ->
  Vdram_core.Config.t ->
  Vdram_core.Model.extraction
(** Capacitance-extraction stage ({!Vdram_core.Model.extract}).  Keyed
    on {!Vdram_core.Model.physics_projection} — every field except
    [name].  [base] is the extraction of a configuration the evaluated
    one is a small perturbation of (a sweep's nominal point, a corner
    draw's seed) — the batched drivers pass what this function
    returned for it just before their batch.  On a miss the stage runs
    {!Vdram_core.Model.extract_delta} against it — re-extracting only
    the circuit groups whose per-group sub-key changed and splicing
    the rest — instead of a full extract.  The base is a hint, never a
    semantic: the result is bit-identical to the full extraction
    whatever device it came from, and a [~delta:false] engine ignores
    it. *)

val eval :
  ?base:Vdram_core.Model.extraction ->
  t ->
  Vdram_core.Config.t ->
  Vdram_core.Pattern.t ->
  Vdram_core.Report.t
(** Pattern-mix stage: the full report.  Keyed on the physical
    configuration and the pattern; the report's [config_name] is
    patched to the caller's configuration name on every return, so a
    cache hit from a renamed twin stays correctly labelled.
    Bit-identical to {!Vdram_core.Model.pattern_power}.  [base] is
    forwarded to {!extraction} on a mix miss. *)

val power :
  ?base:Vdram_core.Model.extraction ->
  t -> Vdram_core.Config.t -> Vdram_core.Pattern.t -> float

val current :
  ?base:Vdram_core.Model.extraction ->
  t -> Vdram_core.Config.t -> Vdram_core.Pattern.t -> float

val energy_per_bit :
  ?base:Vdram_core.Model.extraction ->
  t -> Vdram_core.Config.t -> Vdram_core.Pattern.t -> float option

val op_energy :
  ?base:Vdram_core.Model.extraction ->
  t -> Vdram_core.Config.t -> Vdram_core.Operation.kind -> float
(** Per-occurrence supply energy of one operation, from the cached
    extraction ({!Vdram_core.Operation.energy} equivalent). *)

(** {1 Batch execution} *)

val map_jobs : t -> ('a -> 'b) -> 'a list -> 'b list
(** Evaluate a batch on the engine's domain pool ({!Pool.map} with the
    engine's [jobs]).  Results are returned in input order and are
    bit-identical to the serial [List.map] — see [doc/ENGINE.md]. *)

(** {1 Instrumentation} *)

type stage_stats = {
  hits : int;
  misses : int;
  time_ns : int;  (** monotonic time spent computing misses *)
}

type delta_stats = {
  delta_attempts : int;
      (** extraction misses served by the delta path (a [~base] given) *)
  delta_fallbacks : int;
      (** delta attempts that fell back to a full extract *)
  groups_spliced : int;
      (** clean circuit groups shared from base extractions *)
  groups_dirtied : (string * int) list;
      (** re-extracted group counts, keyed by group name *)
}

type stats = {
  geometry_stats : stage_stats;
  extraction_stats : stage_stats;
  mix_stats : stage_stats;
  delta_stats : delta_stats;
}

val stats : t -> stats
(** Counters accumulated since {!create}.  To measure one phase,
    compare the stats before and after it. *)

val pp_stats : Format.formatter -> stats -> unit
