(* Supervised batch runtime: a per-item fault boundary, failure
   classification and a failure budget, run inside Pool.map. *)

module Report = Vdram_core.Report
module Fp = Fingerprint

type policy = {
  keep_going : bool;
  max_failures : int option;
  deadline : float option;
}

let default_policy = { keep_going = true; max_failures = None; deadline = None }
let strict_policy = { default_policy with keep_going = false }

type failure = {
  batch : int;
  index : int;
  stage : string;
  fingerprint : string;
  injected : bool;
  message : string;
  elapsed_ns : int;
}

type 'b outcome = Done of 'b | Failed of failure | Skipped

exception Rejected of string
exception Aborted of { failures : int; tolerated : int }

let () =
  Printexc.register_printer (function
    | Rejected reason -> Some (Printf.sprintf "Supervise.Rejected(%s)" reason)
    | Aborted { failures; tolerated } ->
      Some
        (Printf.sprintf "Supervise.Aborted(%d failures > %d tolerated)"
           failures tolerated)
    | _ -> None)

type t = {
  policy : policy;
  plan : Faults.plan option;
  batch_counter : int Atomic.t;
  mutable abort_flag : bool;
  lock : Mutex.t;
  mutable all_failures : failure list; (* reverse batch order *)
}

let create ?(policy = default_policy) ?faults () =
  let plan =
    match faults with
    | Some p -> Some p
    | None ->
      (match Faults.of_env () with
       | Ok p -> p
       | Error msg -> invalid_arg ("VDRAM_FAULTS: " ^ msg))
  in
  {
    policy;
    plan;
    batch_counter = Atomic.make 0;
    abort_flag = false;
    lock = Mutex.create ();
    all_failures = [];
  }

let policy t = t.policy
let plan t = t.plan
let aborted t = t.abort_flag

let failures t =
  Mutex.lock t.lock;
  let fs = t.all_failures in
  Mutex.unlock t.lock;
  List.rev fs

let finite_report r =
  if Report.is_finite r then None
  else
    Some
      (Printf.sprintf "non-finite value in report %s | %s"
         r.Report.config_name r.Report.pattern_name)

(* ----- per-item evaluation ------------------------------------------ *)

let item_fingerprint x = try Fp.hex (Fp.of_value x) with _ -> "opaque"

(* The original exception and backtrace ride alongside the outcome so
   strict mode can replay the first input-order failure exactly as
   Pool.map would have. *)
type 'b slot = {
  outcome : 'b outcome;
  original : (exn * Printexc.raw_backtrace) option;
}

let skipped = { outcome = Skipped; original = None }

let classify e =
  match e with
  | Faults.Injected (stage, _, _) -> (stage, true, Printexc.to_string e)
  | Engine.Stage_error (stage, inner) ->
    (stage, false, Printexc.to_string inner)
  | Rejected reason -> ("validate", false, reason)
  | e -> ("driver", false, Printexc.to_string e)

let eval_item t ~batch ~check ~deadline f index x =
  let t0 = Monotonic_clock.now () in
  let elapsed () = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
  match
    Faults.with_item ?plan:t.plan ~batch ~index (fun () ->
        let r = f x in
        (match check with
         | None -> ()
         | Some chk ->
           (match chk r with
            | Some reason -> raise (Rejected reason)
            | None -> ()));
        r)
  with
  | r ->
    let elapsed_ns = elapsed () in
    (match deadline with
     | Some d when float_of_int elapsed_ns /. 1e9 > d ->
       let message =
         Printf.sprintf "item exceeded deadline (%.3f s > %.3f s)"
           (float_of_int elapsed_ns /. 1e9)
           d
       in
       {
         outcome =
           Failed
             {
               batch;
               index;
               stage = "deadline";
               fingerprint = item_fingerprint x;
               injected = false;
               message;
               elapsed_ns;
             };
         original = Some (Failure message, Printexc.get_callstack 0);
       }
     | _ -> { outcome = Done r; original = None })
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    let stage, injected, message = classify e in
    {
      outcome =
        Failed
          {
            batch;
            index;
            stage;
            fingerprint = item_fingerprint x;
            injected;
            message;
            elapsed_ns = elapsed ();
          };
      original = Some (e, bt);
    }

(* ----- the batch ----------------------------------------------------- *)

let map t engine ?check f xs =
  let batch = Atomic.fetch_and_add t.batch_counter 1 in
  let items = Array.of_list xs in
  let deadline = t.policy.deadline in
  (* Budget: the number of failures tolerated before the batch stops
     claiming work.  Strict and unbounded keep-going evaluate every
     item regardless. *)
  let budget =
    match t.policy.max_failures with
    | Some m when t.policy.keep_going -> m
    | _ -> max_int
  in
  let nfail = Atomic.make 0 in
  let stop = Atomic.make false in
  (* Each item's slot is computed inside Pool.map, whose workers mark
     their domains so nested parallelism degrades to serial.  Once the
     budget is spent the remaining items come back Skipped without [f]
     being called. *)
  let run_one i =
    if Atomic.get stop then skipped
    else begin
      let slot = eval_item t ~batch ~check ~deadline f i items.(i) in
      (match slot.outcome with
       | Failed _ ->
         if 1 + Atomic.fetch_and_add nfail 1 > budget then
           Atomic.set stop true
       | Done _ | Skipped -> ());
      slot
    end
  in
  let slots =
    Pool.map ~jobs:(Engine.jobs engine) run_one
      (List.init (Array.length items) Fun.id)
  in
  (* Record this batch's failures (index order) on the supervisor. *)
  let batch_failures =
    List.filter_map
      (fun s -> match s.outcome with Failed fl -> Some fl | _ -> None)
      slots
  in
  if batch_failures <> [] then begin
    Mutex.lock t.lock;
    t.all_failures <- List.rev_append batch_failures t.all_failures;
    Mutex.unlock t.lock
  end;
  if Atomic.get stop then begin
    t.abort_flag <- true;
    raise (Aborted { failures = Atomic.get nfail; tolerated = budget })
  end;
  if not t.policy.keep_going then
    (* Strict: replay the first input-order failure with its original
       exception and backtrace — exactly what Pool.map would raise.
       Stage_error is unwrapped back to the inner exception so strict
       supervision is observationally identical to no supervision. *)
    List.iter
      (fun s ->
        match (s.outcome, s.original) with
        | Failed _, Some (e, bt) ->
          let e =
            match e with Engine.Stage_error (_, inner) -> inner | e -> e
          in
          Printexc.raise_with_backtrace e bt
        | _ -> ())
      slots;
  List.map (fun s -> s.outcome) slots

let map_jobs ?supervisor engine ?check f xs =
  match supervisor with
  | Some t -> map t engine ?check f xs
  | None -> List.map (fun r -> Done r) (Engine.map_jobs engine f xs)

(* ----- counters and the failure report ------------------------------- *)

type counters = {
  batches : int;
  failures : int;
  injected : int;
  deadline : int;
  rejected : int;
  degraded : int;
  by_stage : (string * int) list;
}

let group_by_stage fs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun f ->
      Hashtbl.replace tbl f.stage
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f.stage)))
    fs;
  Hashtbl.fold (fun stage n acc -> (stage, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t =
  let fs = failures t in
  let count p = List.length (List.filter p fs) in
  {
    batches = Atomic.get t.batch_counter;
    failures = List.length fs;
    injected = count (fun f -> f.injected);
    deadline = count (fun f -> f.stage = "deadline");
    rejected = count (fun f -> f.stage = "validate");
    degraded = Pool.degraded ();
    by_stage = group_by_stage fs;
  }

let pp_counters ppf c =
  Format.fprintf ppf
    "%d failures over %d batches (%d injected, %d deadline, %d rejected)%s"
    c.failures c.batches c.injected c.deadline c.rejected
    (if c.degraded > 0 then
       Printf.sprintf ", %d workers degraded" c.degraded
     else "");
  match c.by_stage with
  | [] -> ()
  | by_stage ->
    Format.fprintf ppf "@.  by class: %s"
      (String.concat ", "
         (List.map (fun (s, n) -> Printf.sprintf "%s %d" s n) by_stage))

module Json = Vdram_json.Json

let report_to_json ~command t =
  let c = counters t in
  let int n = Json.Num (float n) in
  let option f = function Some x -> f x | None -> Json.Null in
  let lit fmt x = Json.Lit (Printf.sprintf fmt x) in
  let failure f =
    Json.Obj
      [ ("batch", int f.batch); ("index", int f.index);
        ("stage", Json.Str f.stage); ("injected", Json.Bool f.injected);
        ("fingerprint", Json.Str f.fingerprint);
        ("message", Json.Str f.message);
        ("elapsed_ms", lit "%.3f" (float f.elapsed_ns /. 1e6)) ]
  in
  let counters =
    Json.Obj
      [ ("batches", int c.batches); ("failures", int c.failures);
        ("injected", int c.injected); ("deadline", int c.deadline);
        ("rejected", int c.rejected); ("degraded", int c.degraded);
        ("by_stage", Json.Obj (List.map (fun (s, n) -> (s, int n)) c.by_stage))
      ]
  in
  Json.to_lines
    (Json.Obj
       [ ("version", int 1); ("command", Json.Str command);
         ("keep_going", Json.Bool t.policy.keep_going);
         ("max_failures", option int t.policy.max_failures);
         ("deadline", option (lit "%g") t.policy.deadline);
         ("faults", option (fun p -> Json.Str (Faults.to_string p)) t.plan);
         ("aborted", Json.Bool t.abort_flag); ("counters", counters);
         ("failures", Json.List (List.map failure (failures t))) ])
