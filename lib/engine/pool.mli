(** Domain-based worker pool with deterministic ordered merge.

    [map ~jobs f xs] applies [f] to every element of [xs] on the
    calling domain and up to [jobs - 1] helper domains, and returns
    the results in input order — the output is the same list
    [List.map f xs] would produce, element for element.  Helpers come
    from one process-wide set of domains, which also runs {!run}'s
    jobs: spawned on first need, only when none is parked and fewer
    than the caller's [jobs] are busy, and parked between jobs, so a
    map pays no domain spawn or join; a parked domain does not keep
    the process alive at exit.  A map from a domain outside the set
    keeps at most [jobs - 1] of its domains busy, a job and the maps
    it starts at most [jobs].  Work is distributed by chunked atomic
    index stealing: each fetch claims a run of consecutive indices, so
    µs-scale jobs amortize the steal and bounds-check overhead, while
    uneven job costs still balance across workers.  Results land in a
    slot per input position, so neither scheduling order nor chunk
    geometry ever leaks into the output.  This is the repository's one
    chunked domain loop, {!Supervise.map} runs its per-item boundary
    inside it, and the only module that spawns domains. *)

val map : ?chunk:int -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Runs serially when [jobs <= 1], when the list has fewer than two
    elements, when one chunk covers the whole input, or when called
    from inside another [map]'s [f] (nested parallelism degrades to
    serial instead of oversubscribing); and on its caller alone when no
    domain of the set is free within [jobs] (two threads mapping at
    once: one gets the helpers, the other runs on its caller).  A map
    started inside a {!run} job borrows the set's idle domains.  A
    helper that has not woken when the caller runs out of work is taken
    back, not waited for.  [chunk] is the number of consecutive items
    claimed per steal (clamped to >= 1); it defaults adaptively to
    about eight chunks per worker, capped at 1024.  If [f] raises, the
    first exception in {e input} order is re-raised with its backtrace
    once every helper has left the map — at any [jobs] and any
    [chunk]. *)

val run : jobs:int -> on_post:('m -> unit) -> (('m -> unit) -> 'a) -> 'a
(** [run ~jobs ~on_post f] runs [f post] on a domain of the set and
    blocks the calling thread (releasing its domain's runtime lock)
    until it returns its result: the serve daemon's computations leave
    the main domain to its connection threads this way.  Each [post m]
    that [f] makes is handed to [on_post m] on the calling thread, in
    order and before [run] returns; the domain does not wait for it, so
    a blocking [on_post] never holds a domain.  A parked domain takes
    the job at once, or a new one while fewer than [jobs] are busy.  A
    job never waits for a busy domain: with [jobs] of them busy
    (running jobs or helping maps), or when a domain cannot be spawned,
    [f on_post] runs on the caller.  If [f] raises, the exception is
    re-raised on the caller with its backtrace. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], unless the [VDRAM_JOBS]
    environment variable holds an integer — then that value, clamped
    to >= 1.  Lets CI and scripts pin parallelism without threading
    [--jobs] through every command. *)

val default_chunk : jobs:int -> int -> int
(** The adaptive chunk size [map] uses for an input of the given
    length (exposed for tests). *)

val degraded : unit -> int
(** Domains that could not be spawned since the process started.  A
    failed spawn never fails the work: a map runs on the calling domain
    and the helpers there are, a {!run} job on its caller, and the
    next call tries to spawn again. *)
