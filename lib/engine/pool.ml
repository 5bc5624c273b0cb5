(* Domain pool: chunked atomic index stealing, results merged in input
   order. *)

let default_jobs () =
  match Sys.getenv_opt "VDRAM_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some j -> max 1 j
     | None -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Set inside a worker so a parallel map reached from within another
   parallel map runs serially instead of spawning domains^2. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

let spawn_failures = Atomic.make 0
let degraded () = Atomic.get spawn_failures

(* Workers steal a run of consecutive indices per fetch instead of one
   index: for µs-scale jobs the atomic fetch, the bounds check and the
   cache-line traffic on [next] otherwise dominate the job itself.
   The default aims at ~8 chunks per worker — enough slack for uneven
   job costs to balance, few enough that steal overhead amortizes. *)
let default_chunk ~jobs n = max 1 (min 1024 (n / (jobs * 8)))

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
    (* No point spawning more workers than there are chunks. *)
    let jobs = min jobs ((n + chunk - 1) / chunk) in
    if jobs <= 1 then List.map f xs
    else begin
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let worker () =
        Domain.DLS.set in_worker true;
        let rec loop () =
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
            loop ()
          end
        in
        loop ()
      in
      (* A domain that cannot be spawned (resource exhaustion) degrades
         the map to fewer workers instead of failing it: the calling
         domain alone can claim every chunk. *)
      let spawned =
        List.filter_map
          (fun _ ->
            match Domain.spawn worker with
            | d -> Some d
            | exception _ ->
              Atomic.incr spawn_failures;
              None)
          (List.init (jobs - 1) Fun.id)
      in
      (* The calling domain participates too, then drops its worker
         flag so later maps from this domain parallelise again. *)
      worker ();
      Domain.DLS.set in_worker false;
      List.iter Domain.join spawned;
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
