(* Lanes: domains shared by the whole process that run served
   computations, spawned when a job finds every lane busy and parked in
   [Condition.wait] between jobs.  [free] counts the lanes not running
   a job; a lane looks at [queue] before it parks, so a job queued
   while [free] exceeds the queue is sure to be taken at once.  A job
   never waits for a busy lane: with all [lanes] busy it runs on its
   caller.  Everything a job hands back (its messages, then its result)
   goes through [lock], and the lane counts itself free in the same
   critical section that publishes the result. *)

module Pool = Vdram_engine.Pool

let lock = Mutex.create ()
let wake = Condition.create ()
let queue : (unit -> unit -> unit) Queue.t = Queue.create ()
let spawned = ref 0
let free = ref 0

let lane () =
  Mutex.lock lock;
  while true do
    match Queue.take_opt queue with
    | Some job ->
      decr free;
      Mutex.unlock lock;
      let publish = job () in
      Mutex.lock lock;
      publish ();
      incr free
    | None -> Condition.wait wake lock
  done

let run ~lanes ~on_post f =
  Mutex.lock lock;
  let placed =
    Queue.length queue < !free
    || !spawned < max 1 lanes
       &&
       match Domain.spawn lane with
       | (_ : unit Domain.t) ->
         incr spawned;
         incr free;
         true
       | exception _ ->
         Pool.spawn_failed ();
         false
  in
  if not placed then begin
    Mutex.unlock lock;
    f on_post
  end
  else begin
    let mailbox = Queue.create () in
    let result = ref None in
    let ready = Condition.create () in
    let post m =
      Mutex.lock lock;
      Queue.push m mailbox;
      Condition.signal ready;
      Mutex.unlock lock
    in
    Queue.push
      (fun () ->
        (* [f]'s exception and backtrace travel back to the caller, so
           the lane always returns to park. *)
        let r =
          match f post with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        fun () ->
          result := Some r;
          Condition.signal ready)
      queue;
    Condition.signal wake;
    (* Messages go to [on_post] outside the lock, so one that blocks (a
       write to a client that stopped reading) holds up neither the
       lane nor any other caller. *)
    let rec wait () =
      match Queue.take_opt mailbox with
      | Some m ->
        Mutex.unlock lock;
        on_post m;
        Mutex.lock lock;
        wait ()
      | None ->
        (match !result with
         | Some r -> r
         | None ->
           Condition.wait ready lock;
           wait ())
    in
    let r = wait () in
    Mutex.unlock lock;
    match r with
    | Ok v -> v
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt
  end
