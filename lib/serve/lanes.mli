(** Lanes: the domains that run the serve daemon's computations.

    Connection threads are systhreads of the main domain, so they take
    turns on its runtime lock.  {!run} moves one computation onto a
    lane, a domain shared by the whole process, and blocks the calling
    thread (releasing that lock) until it returns.  Lanes are spawned
    on first need, only when every lane is busy, and parked in
    [Condition.wait] between jobs; a parked lane does not keep the
    process alive at exit.  Lanes are not {!Vdram_engine.Pool} workers:
    a batch map on a lane takes the pool's helpers when they are free,
    else runs on the lane. *)

val run : lanes:int -> on_post:('m -> unit) -> (('m -> unit) -> 'a) -> 'a
(** [run ~lanes ~on_post f] runs [f post] on a lane and returns its
    result.  Each [post m] that [f] makes is handed to [on_post m] on
    the calling thread, in order and before [run] returns; the lane
    does not wait for it, so a blocking [on_post] never holds a lane.

    A free lane takes the job at once; if none is free and fewer than
    [lanes] (at least 1) exist, a new one is spawned.  A job never
    waits for a busy lane: when all [lanes] are busy, or a lane cannot
    be spawned (counted in {!Vdram_engine.Pool.degraded}), [f on_post]
    runs on the caller.  If [f] raises, the exception is re-raised on
    the caller with its backtrace. *)
