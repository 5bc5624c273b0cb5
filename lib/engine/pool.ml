(* Domain pool: one process-wide set of domains, spawned on first need
   and parked between jobs, that runs the helpers of maps (chunked
   atomic index stealing, results merged in input order) and whole jobs
   handed over by other threads. *)

let default_jobs () =
  match Sys.getenv_opt "VDRAM_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some j -> max 1 j
     | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Set while a domain runs a map's work loop, so a parallel map reached
   from within another parallel map runs serially instead of spawning
   domains^2. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

(* Set for life on the pool's domains: a map there is already one of
   the busy domains. *)
let pooled = Domain.DLS.new_key (fun () -> false)

let spawn_failures = Atomic.make 0
let degraded () = Atomic.get spawn_failures

(* Workers steal a run of consecutive indices per fetch instead of one
   index: for µs-scale jobs the atomic fetch, the bounds check and the
   cache-line traffic on [next] otherwise dominate the job itself.
   The default aims at ~8 chunks per worker — enough slack for uneven
   job costs to balance, few enough that steal overhead amortizes. *)
let default_chunk ~jobs n = max 1 (min 1024 (n / (jobs * 8)))

(* ----- parked domains ------------------------------------------------ *)

(* Spawning and joining a domain per map costs a stop-the-world minor
   collection each time, and the short-lived domains' leftovers outrun
   the major GC on µs-scale batches.  So the pool's domains live for the
   process, each parked in [Condition.wait] on its own [wake] until it
   is handed a [job].  A domain is spawned only when none is [idle] and
   fewer than the caller's limit are [busy], because even a parked
   domain slows the others' minor collections.  A job returns what it
   publishes; the domain publishes it and parks in one critical
   section, so a caller that sees the result finds the domain free.  A
   parked domain does not keep the process alive at exit. *)
type domain = {
  wake : Condition.t;
  mutable job : (unit -> unit -> unit) option;
}

let lock = Mutex.create ()
let idle = ref []
let busy = ref 0

let rec park d =
  match d.job with
  | None ->
    Condition.wait d.wake lock;
    park d
  | Some job ->
    d.job <- None;
    Mutex.unlock lock;
    let publish = job () in
    Mutex.lock lock;
    publish ();
    idle := d :: !idle;
    decr busy;
    park d

(* Under [lock]: the domain that now holds [job], unless [limit] are
   busy.  A domain that cannot be spawned (resource exhaustion) leaves
   the work to the caller; the next hand-over tries again. *)
let hand ~limit job =
  let spawn () =
    let d = { wake = Condition.create (); job = None } in
    let start () =
      Domain.DLS.set pooled true;
      Mutex.lock lock;
      park d
    in
    match Domain.spawn start with
    | (_ : unit Domain.t) -> Some d
    | exception _ ->
      Atomic.incr spawn_failures;
      None
  in
  let d =
    if !busy >= limit then None
    else match !idle with d :: rest -> idle := rest; Some d | [] -> spawn ()
  in
  Option.iter
    (fun d ->
      incr busy;
      d.job <- Some job;
      Condition.signal d.wake)
    d;
  d

let run ~jobs ~on_post f =
  let mailbox = Queue.create () in
  let result = ref None in
  let ready = Condition.create () in
  let post m =
    Mutex.lock lock;
    Queue.push m mailbox;
    Condition.signal ready;
    Mutex.unlock lock
  in
  (* [f]'s exception and backtrace travel back to the caller, so the
     domain always returns to park. *)
  let job () =
    let r =
      match f post with
      | v -> Ok v
      | exception e -> Error (e, Printexc.get_raw_backtrace ())
    in
    fun () ->
      result := Some r;
      Condition.signal ready
  in
  Mutex.lock lock;
  if Option.is_none (hand ~limit:jobs job) then begin
    Mutex.unlock lock;
    f on_post
  end
  else begin
    (* Messages go to [on_post] outside the lock, so one that blocks (a
       write to a client that stopped reading) holds up neither the
       domain nor any other caller. *)
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

(* Signalled when the last helper of a map has left it. *)
let left = Condition.create ()

(* The calling domain runs [work] beside up to [jobs - 1] helpers.  Then
   it takes back each helper that has not woken yet, so a map never
   waits for a domain that has not started, and waits for the others. *)
let run_parallel ~jobs work =
  let running = ref 0 in
  let loop () =
    Domain.DLS.set in_worker true;
    work ();
    Domain.DLS.set in_worker false
  in
  let helper () =
    loop ();
    fun () ->
      decr running;
      if !running = 0 then Condition.broadcast left
  in
  let limit = if Domain.DLS.get pooled then jobs else jobs - 1 in
  Mutex.lock lock;
  let hired =
    List.filter_map (fun _ -> hand ~limit helper) (List.init (jobs - 1) Fun.id)
  in
  running := List.length hired;
  Mutex.unlock lock;
  loop ();
  Mutex.lock lock;
  List.iter
    (fun d ->
      match d.job with
      | Some j when j == helper ->
        d.job <- None;
        idle := d :: !idle;
        decr busy;
        decr running
      | _ -> ())
    hired;
  while !running > 0 do Condition.wait left lock done;
  Mutex.unlock lock

let map ?chunk ~jobs f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let jobs = min jobs n in
  if jobs <= 1 || n <= 1 || Domain.DLS.get in_worker then List.map f xs
  else begin
    let chunk =
      match chunk with
      | Some c -> max 1 c
      | None -> default_chunk ~jobs n
    in
    (* No point waking more workers than there are chunks. *)
    let jobs = min jobs ((n + chunk - 1) / chunk) in
    if jobs <= 1 then List.map f xs
    else begin
      let results = Array.make n None in
      let next = Atomic.make 0 in
      (* [f]'s exceptions land in their item's slot, so the loop never
         raises and a helper always comes back to park. *)
      let rec work () =
        let i0 = Atomic.fetch_and_add next chunk in
        if i0 < n then begin
          let stop = min n (i0 + chunk) - 1 in
          for i = i0 to stop do
            results.(i) <-
              (match f items.(i) with
               | r -> Some (Ok r)
               | exception e ->
                 Some (Error (e, Printexc.get_raw_backtrace ())))
          done;
          work ()
        end
      in
      run_parallel ~jobs work;
      (* Re-raise the first failure in input order, independent of which
         domain hit it first. *)
      Array.iter
        (function
          | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | _ -> ())
        results;
      Array.to_list
        (Array.map
           (function Some (Ok r) -> r | _ -> assert false)
           results)
    end
  end
