(** Supervised batch runtime: per-item fault isolation over the
    engine's domain pool.

    {!Engine.map_jobs} is all-or-nothing — one poisoned configuration
    in a 5000-sample batch aborts the whole run.  A supervisor runs a
    per-item boundary inside the same chunked, order-merged
    {!Pool.map}: each item either produces its value ([Done]), produces a
    structured {!failure} record ([Failed] — batch, index, stage,
    input fingerprint, injected-or-real, message, elapsed time), or is
    [Skipped] because the failure budget was already spent.

    Policies:
    - {e strict} ([keep_going = false]): every item is still
      evaluated, failures are still recorded on the supervisor, and
      then the first failure {e in input order} is re-raised with its
      original backtrace — observationally identical to
      {!Engine.map_jobs}, plus the failure records.
    - {e keep-going}: failures become [Failed] outcomes; the batch
      completes and callers assemble partial results.
    - {e bounded} ([max_failures = Some n]): keep going until more
      than [n] items have failed, then stop claiming work (remaining
      items are [Skipped]) and raise {!Aborted} after all workers
      join.  Failures seen so far remain recorded on the supervisor.

    An optional per-item [deadline] (seconds) classifies an
    over-budget item as a ["deadline"] failure even when it returned a
    value; an optional [check] validates each result (e.g.
    {!finite_report}) and classifies a rejection as a ["validate"]
    failure.

    With no faults, no failures and no deadline hits, the [Done]
    payloads are bit-identical to the unsupervised engine at any job
    count — supervision never perturbs a healthy run.  Because items
    run on {!Pool.map}'s workers, nested parallelism degrades to
    serial exactly as it does there, and a worker domain that cannot
    be spawned degrades the batch to fewer workers ({!Pool.degraded},
    reported in {!counters}) instead of failing it. *)

type policy = {
  keep_going : bool;
      (** record failures and return partial results instead of
          re-raising the first failure *)
  max_failures : int option;
      (** with [keep_going]: stop the batch once {e more than} this
          many items have failed, raising {!Aborted} *)
  deadline : float option;
      (** per-item wall-clock budget in seconds; an item exceeding it
          is recorded as a ["deadline"] failure *)
}

val default_policy : policy
(** [{ keep_going = true; max_failures = None; deadline = None }] *)

val strict_policy : policy
(** [{ default_policy with keep_going = false }] — failure records
    plus the exact re-raise behaviour of {!Engine.map_jobs}. *)

type failure = {
  batch : int;        (** supervisor-wide batch sequence number *)
  index : int;        (** position of the item in its batch *)
  stage : string;
      (** ["geometry"], ["extraction"], ["mix"] (engine stages),
          ["validate"] (check rejection), ["deadline"], or ["driver"]
          (failure outside any engine stage) *)
  fingerprint : string;  (** hex fingerprint of the input item *)
  injected : bool;       (** true for {!Faults.Injected} faults *)
  message : string;      (** printed exception or rejection reason *)
  elapsed_ns : int;      (** time spent on the item before it failed *)
}

type 'b outcome = Done of 'b | Failed of failure | Skipped

exception Rejected of string
(** Raised by {!map} when [check] returns [Some reason]; classified as
    a ["validate"] failure.  Raising it from the job function directly
    has the same effect. *)

exception Aborted of { failures : int; tolerated : int }
(** The batch stopped because more than [tolerated] items failed.
    Failures recorded before the stop remain available via
    {!failures} / {!report_to_json}. *)

type t

val create : ?policy:policy -> ?faults:Faults.plan -> unit -> t
(** A supervisor accumulating failures across batches.  [policy]
    defaults to {!default_policy}.  [faults] overrides the fault plan:
    pass {!Faults.none} to ignore [VDRAM_FAULTS]; when omitted the
    plan comes from the environment ([Invalid_argument] if
    [VDRAM_FAULTS] is set but malformed). *)

val policy : t -> policy
val plan : t -> Faults.plan option

val map :
  t ->
  Engine.t ->
  ?check:('b -> string option) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list
(** Supervised parallel map: {!Pool.map} on the engine's job count,
    with the per-item isolation, classification and budget semantics
    described above.
    [check] validates each produced value ([Some reason] rejects it).
    Raises {!Aborted} under a spent [max_failures] budget, or the
    first original failure in input order under [strict_policy]. *)

val map_jobs :
  ?supervisor:t ->
  Engine.t ->
  ?check:('b -> string option) ->
  ('a -> 'b) ->
  'a list ->
  'b outcome list
(** What the analysis drivers call.  With a supervisor this is {!map};
    without one it is {!Engine.map_jobs} with every result wrapped in
    [Done] — byte-identical behaviour (including exception propagation,
    and [check] is not consulted), so unsupervised callers cannot be
    perturbed. *)

val finite_report : Vdram_core.Report.t -> string option
(** A [check] for report-producing jobs: [Some "non-finite …"] when
    any numeric field is NaN or infinite ({!Vdram_core.Report.is_finite}). *)

val classify : exn -> string * bool * string
(** [(stage, injected, message)] — the failure classification the
    supervised runtime applies to an escaped exception: the engine
    stage of a {!Engine.Stage_error}, ["validate"] for {!Rejected},
    ["driver"] otherwise; [injected] for {!Faults.Injected} faults.
    Exposed so other fault boundaries (the serve daemon) classify
    identically. *)

(** {1 Failure accounting} *)

val failures : t -> failure list
(** Every failure recorded on this supervisor, in batch order then
    index order. *)

type counters = {
  batches : int;   (** batches run through {!map} *)
  failures : int;  (** total failure records *)
  injected : int;  (** of which fault-injected *)
  deadline : int;  (** of which deadline overruns *)
  rejected : int;  (** of which check rejections *)
  degraded : int;
      (** worker domains that failed to spawn, process-wide
          ({!Pool.degraded}) *)
  by_stage : (string * int) list;
      (** failure count per class — ["geometry"], ["extraction"],
          ["mix"], ["validate"], ["deadline"], ["driver"] — sorted by
          class name, zero-count classes omitted.  Sums to
          [failures]. *)
}

val counters : t -> counters
val aborted : t -> bool

val pp_counters : Format.formatter -> counters -> unit

val report_to_json : command:string -> t -> string
(** The machine-readable failure report ([--fail-log]): version,
    command, policy, fault plan, abort flag, counters, and one record
    per failure.  Stable schema (version 1); an empty batch yields
    ["failures": []].  Printed by {!Vdram_json.Json.to_lines}: one
    member per line, one failure record per line. *)
