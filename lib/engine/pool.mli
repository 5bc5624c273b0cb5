(** Domain-based worker pool with deterministic ordered merge.

    [map ~jobs f xs] applies [f] to every element of [xs] on up to
    [jobs] domains and returns the results in input order — the output
    is the same list [List.map f xs] would produce, element for
    element.  Work is distributed by chunked atomic index stealing:
    each fetch claims a run of consecutive indices, so µs-scale jobs
    amortize the steal and bounds-check overhead, while uneven job
    costs still balance across workers.  Results land in a slot per
    input position, so neither scheduling order nor chunk geometry
    ever leaks into the output.  This is the repository's one
    chunked domain loop: {!Supervise.map} runs its per-item boundary
    inside it. *)

val map : ?chunk:int -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Runs serially when [jobs <= 1], when the list has fewer than two
    elements, when one chunk covers the whole input, or when called
    from inside another [map] worker (nested parallelism degrades to
    serial instead of oversubscribing).  [chunk] is the number of
    consecutive items claimed per steal (clamped to >= 1); it defaults
    adaptively to about eight chunks per worker, capped at 1024.  If
    [f] raises, the first exception in {e input} order is re-raised
    with its backtrace after all domains have joined — at any [jobs]
    and any [chunk]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], unless the [VDRAM_JOBS]
    environment variable holds an integer — then that value, clamped
    to >= 1.  Lets CI and scripts pin parallelism without threading
    [--jobs] through every command. *)

val default_chunk : jobs:int -> int -> int
(** The adaptive chunk size [map] uses for an input of the given
    length (exposed for tests). *)

val degraded : unit -> int
(** Worker domains that {!map} could not spawn since the process
    started.  A failed spawn never fails the map: the remaining
    workers, at least the calling domain, claim every chunk. *)
