(** Persistent cross-process stage cache.

    A store is a directory of per-stage snapshot files (extraction and
    pattern-mix results, marshalled with their fingerprint keys) that
    repeated CLI invocations share: a second [vdram corners] run on
    the same population replays every evaluation from disk.

    Every snapshot carries a header — magic, a version stamp
    (model version + fingerprint scheme, supplied by the engine), and
    an MD5 checksum of the payload.  {!read} verifies all three before
    unmarshalling ([Marshal] itself offers no safety against hostile
    bytes; the checksum is the guard).  A failing file is not silently
    re-readable garbage: it is moved to [<dir>/quarantine/] with a
    [.reason] sidecar, counted in {!stats}, and reported as
    {!Corrupt} — the cache stays an accelerator, but bad files leave
    an audit trail instead of being rediscovered on every run.

    Transient I/O errors and checksum races (a concurrent writer on a
    filesystem without atomic rename) are retried with exponential
    backoff before a file is declared corrupt.  Writes are atomic
    (temp file + rename), so concurrent processes never observe a torn
    snapshot; the last writer wins.

    A store can be size-capped ({!open_} [?max_bytes], or
    [VDRAM_CACHE_MAX_BYTES]): after every {!save} the oldest snapshot
    files are evicted until the store fits, so a long-lived cache
    directory cannot grow without bound.  The quarantine directory is
    capped independently ([?quarantine_max_bytes], or
    [VDRAM_QUARANTINE_MAX_BYTES], default 32 MiB): after every
    quarantine move the oldest specimens (with their [.reason]
    sidecars) are dropped until the evidence fits — a corrupt-heavy
    run keeps the freshest specimens instead of growing without
    bound. *)

type t

val open_ :
  ?dir:string ->
  ?max_bytes:int ->
  ?quarantine_max_bytes:int ->
  version:string ->
  unit ->
  t
(** A handle on the store directory.  [dir] defaults to
    {!default_dir}; nothing is read or created until {!read}/{!save}.
    [version] stamps every snapshot — loads under a different version
    quarantine the file.  [max_bytes] caps the total size of snapshot
    files (default [VDRAM_CACHE_MAX_BYTES] when set, else uncapped);
    {!save} evicts oldest-first down to the cap.
    [quarantine_max_bytes] caps the quarantine directory the same way
    (default [VDRAM_QUARANTINE_MAX_BYTES], else 32 MiB).  Either
    variable set to something [int_of_string_opt] rejects (say
    [32MiB]) or to a negative number counts as unset. *)

val default_dir : unit -> string
(** [$VDRAM_CACHE_DIR] when set and non-empty, else
    [_build/.vdram-cache] relative to the working directory. *)

val dir : t -> string
val version : t -> string
val max_bytes : t -> int option
val quarantine_max_bytes : t -> int option

val path : t -> string -> string
(** The snapshot file a stage name maps to (diagnostics, tests). *)

val quarantine_dir : t -> string
(** Where corrupt or version-skewed snapshots are moved. *)

(** {1 I/O} *)

type 'a read =
  | Hit of 'a              (** verified and decoded *)
  | Missing                (** no snapshot file — a clean cold cache *)
  | Corrupt of string      (** failed after retries; file quarantined *)

val read : ?retries:int -> ?backoff:float -> t -> name:string -> 'a read
(** Read a snapshot with verification, retry and quarantine.  Up to
    [retries] (default 2) re-reads with exponential [backoff] (default
    5 ms base) absorb transient I/O errors and mid-rename races; a
    file still failing is moved to {!quarantine_dir} and reported
    {!Corrupt} with the reason; after every such move the oldest
    specimens are evicted down to [quarantine_max_bytes].  Type-safety
    caveat: the caller must request the type that was saved under
    [name]; the version stamp (model version + fingerprint scheme)
    keeps the two sides in agreement. *)

val save : ?retries:int -> ?backoff:float -> t -> name:string -> 'a -> unit
(** Write a snapshot atomically, creating the directory if needed,
    retrying transient failures with backoff.  Persistent I/O failures
    are swallowed — a cache must never fail the run it accelerates.
    A successful save then evicts oldest snapshots past [max_bytes]
    (the file just written is never the victim). *)

val evict : ?keep:string -> t -> int
(** Apply the size cap now: delete oldest-first (by mtime, then name)
    until the snapshot files fit [max_bytes], never deleting the
    [keep] stage.  Returns how many files were removed; [0] without a
    cap. *)

val clear : t -> unit
(** Remove every snapshot file in the store directory, including
    quarantined ones (cold-run benchmarking, tests). *)

(** {1 Counters} *)

type io_stats = {
  retries : int;      (** re-read / re-write attempts after failures *)
  discarded : int;    (** snapshots rejected: corrupt, skewed, injected *)
  quarantined : int;  (** rejected files actually moved to quarantine *)
  quarantined_bytes : int;
      (** total bytes of snapshot files moved to quarantine *)
  evicted : int;      (** files removed by the size caps (snapshots and
                          quarantined specimens alike) *)
}

val stats : t -> io_stats
(** Counters accumulated on this handle since {!open_}. *)

val pp_stats : Format.formatter -> io_stats -> unit
