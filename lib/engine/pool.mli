(** Domain-based worker pool with deterministic ordered merge.

    [map ~jobs f xs] applies [f] to every element of [xs] on the
    calling domain and up to [jobs - 1] helper domains, and returns
    the results in input order — the output is the same list
    [List.map f xs] would produce, element for element.  Helpers are
    spawned on first need, up to the largest [jobs - 1] any map has
    asked for, and parked between maps, so a map pays no domain spawn
    or join; a parked helper does not keep the process alive at exit.
    Work is distributed by chunked atomic index stealing: each fetch
    claims a run of consecutive indices, so µs-scale jobs amortize the
    steal and bounds-check overhead, while uneven job costs still
    balance across workers.  Results land in a slot per input
    position, so neither scheduling order nor chunk geometry ever
    leaks into the output.  This is the repository's one chunked
    domain loop: {!Supervise.map} runs its per-item boundary inside
    it. *)

val map : ?chunk:int -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Runs serially when [jobs <= 1], when the list has fewer than two
    elements, when one chunk covers the whole input, when called from
    a helper or from inside another [map]'s [f] (nested parallelism
    degrades to serial instead of oversubscribing), or when another
    map owns the helpers (two threads mapping at once: one gets them,
    the other runs on its caller).  [chunk] is the number of
    consecutive items claimed per steal (clamped to >= 1); it defaults
    adaptively to about eight chunks per worker, capped at 1024.  If
    [f] raises, the first exception in {e input} order is re-raised
    with its backtrace once every helper has left the map — at any
    [jobs] and any [chunk]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], unless the [VDRAM_JOBS]
    environment variable holds an integer — then that value, clamped
    to >= 1.  Lets CI and scripts pin parallelism without threading
    [--jobs] through every command. *)

val default_chunk : jobs:int -> int -> int
(** The adaptive chunk size [map] uses for an input of the given
    length (exposed for tests). *)

val degraded : unit -> int
(** Domains that could not be spawned since the process started:
    {!map}'s helpers, and those counted by {!spawn_failed}.  A failed
    spawn never fails the map: it runs on the calling domain and the
    helpers there are, and a later map tries to spawn again. *)

val spawn_failed : unit -> unit
(** Count one more domain that could not be spawned in {!degraded}:
    for domains spawned outside the pool (the serve daemon's lanes),
    whose work then runs on a domain that already exists. *)
