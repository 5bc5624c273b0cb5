(* Domain pool: helper domains spawned on first need and parked between
   maps; chunked atomic index stealing, results merged in input order. *)

let default_jobs () =
  match Sys.getenv_opt "VDRAM_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some j -> max 1 j
     | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Set inside a worker so a parallel map reached from within another
   parallel map runs serially instead of spawning domains^2.  Helpers
   set it for life; the calling domain only while it works. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

let spawn_failures = Atomic.make 0
let degraded () = Atomic.get spawn_failures
let spawn_failed () = Atomic.incr spawn_failures

(* Workers steal a run of consecutive indices per fetch instead of one
   index: for µs-scale jobs the atomic fetch, the bounds check and the
   cache-line traffic on [next] otherwise dominate the job itself.
   The default aims at ~8 chunks per worker — enough slack for uneven
   job costs to balance, few enough that steal overhead amortizes. *)
let default_chunk ~jobs n = max 1 (min 1024 (n / (jobs * 8)))

(* ----- parked helpers ------------------------------------------------ *)

(* Spawning and joining a domain per map costs a stop-the-world minor
   collection each time, and the short-lived domains' leftovers outrun
   the major GC on µs-scale batches.  So helpers live for the process:
   one map at a time owns them ([owned]).  It publishes its work loop
   in [task] as map number [generation], open to the first [width]
   helpers, runs the loop itself, then closes it ([width] 0) and waits
   on [idle] until every helper that joined ([running]) has left.  A
   helper joins each map at most once, and a map at a given [jobs]
   always reaches the same helpers.  Parked helpers sit in
   [Condition.wait], which neither blocks the other domains'
   collections nor keeps the process alive at exit. *)
let lock = Mutex.create ()
let wake = Condition.create ()
let idle = Condition.create ()
let task = ref ignore
let generation = ref 0
let width = ref 0
let running = ref 0
let owned = Atomic.make false

(* Grown only by the map that owns the helpers. *)
let helpers = ref 0

let helper index () =
  Domain.DLS.set in_worker true;
  Mutex.lock lock;
  let joined = ref 0 in
  while true do
    if index >= !width || !joined = !generation then
      Condition.wait wake lock
    else begin
      joined := !generation;
      incr running;
      let work = !task in
      Mutex.unlock lock;
      work ();
      Mutex.lock lock;
      decr running;
      if !running = 0 then Condition.signal idle
    end
  done

(* A domain that cannot be spawned (resource exhaustion) degrades the
   map to the helpers it has instead of failing it: the calling domain
   alone can claim every chunk.  The next map tries to grow again. *)
let rec grow want =
  if !helpers < want then
    match Domain.spawn (helper !helpers) with
    | (_ : unit Domain.t) ->
      incr helpers;
      grow want
    | exception _ -> spawn_failed ()

let run_parallel ~jobs work =
  Mutex.lock lock;
  task := work;
  incr generation;
  width := jobs - 1;
  Condition.broadcast wake;
  Mutex.unlock lock;
  grow (jobs - 1);
  (* The calling domain participates too, then drops its worker flag so
     later maps from this domain parallelise again. *)
  Domain.DLS.set in_worker true;
  work ();
  Domain.DLS.set in_worker false;
  Mutex.lock lock;
  width := 0;
  task := ignore;
  while !running > 0 do Condition.wait idle lock done;
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
    (* Another map holds the helpers (two serve lanes mapping at once):
       this one runs on its caller, with the same output. *)
    if jobs <= 1 || not (Atomic.compare_and_set owned false true) then
      List.map f xs
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
      Atomic.set owned false;
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
