(* The host-speed references.  On a shared host the effective CPU speed
   drifts by a fifth or more over tens of seconds as other tenants come
   and go, and that drift, not vdram, dominates the run-to-run spread of
   every raw time.  Each run therefore interleaves short samples of fixed
   references with its ops and reports its end-to-end times at the
   references' nominal speed: raw x nominal / measured, with the nominal
   times recorded in calibration.json.  The ops are scaled per one-second
   window (Harness) by a reference of their shape, sampled after every
   [interval] of op time; setup_s by the run's median of a reference of
   the set-up's shape, sampled every [setup_interval].  Contention on a
   shared 2-core host slows work spread over both cores far more than
   work on one, so the two shapes differ.  The references are bench-owned, run
   no vdram code and run in processes of their own, so they never share
   vdram's heap or garbage collector: a change to vdram moves the scaled
   numbers as it moves the raw ones. *)

type kind =
  | Spawn  (** exec -> exit of noop.exe: process start *)
  | Compute  (** a round trip to refwork.exe allocating on two domains:
                 the shape of a jobs=2 engine, in process or in the
                 daemon *)
  | Serial  (** a round trip to refwork.exe working on one domain:
                single-threaded work, such as a batch set-up *)

let kind_name = function Spawn -> "spawn" | Compute -> "compute" | Serial -> "serial"

let sibling exe = Filename.concat (Filename.dirname Sys.executable_name) exe

let interval = 0.03
let setup_interval = 0.1

(* The running refwork.exe: its stdin, its stdout, its pid. *)
type worker = { to_w : Unix.file_descr; from_w : Unix.file_descr; pid : int }

type reference = { kind : kind; mutable samples : float list; mutable last : float }

type t = {
  ops : reference;
  setup : reference;  (** [ops] itself when the kinds are the same *)
  mutable worker : worker option;  (** started at the first refwork sample *)
}

let reference kind = { kind; samples = []; last = Clock.now () }

let create ~setup kind =
  let ops = reference kind in
  { ops; setup = (if setup = kind then ops else reference setup); worker = None }

(* The run's references; the harness samples them between ops. *)
let current = ref (create ~setup:Spawn Spawn)

(* [c] is 'x' for work on two domains, 's' for work on one. *)
let round_trip w c =
  let b = Bytes.make 1 c in
  Proc.write_all w.to_w (Bytes.to_string b);
  let rec read () =
    match Unix.read w.from_w b 0 1 with
    | 1 -> ()
    | _ -> failwith "the compute reference exited"
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  read ()

(* Started with one untimed round trip, so no sample includes its start. *)
let worker t =
  match t.worker with
  | Some w -> w
  | None ->
    let in_r, in_w = Unix.pipe ~cloexec:true () in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process (sibling "refwork.exe") [| "refwork.exe" |] in_r out_w Unix.stderr in
    Unix.close in_r;
    Unix.close out_w;
    let w = { to_w = in_w; from_w = out_r; pid } in
    t.worker <- Some w;
    round_trip w 'x';
    w

(* Takes one sample of [r]; returns its time, s. *)
let sample t r =
  Clock.exclude (fun () ->
      let run =
        match r.kind with
        | Compute ->
          let w = worker t in
          fun () -> round_trip w 'x'
        | Serial ->
          let w = worker t in
          fun () -> round_trip w 's'
        | Spawn -> fun () -> ignore (Proc.run [| sibling "noop.exe" |])
      in
      let t0 = Clock.now () in
      run ();
      let d = Clock.now () -. t0 in
      r.samples <- d :: r.samples;
      r.last <- Clock.now ();
      d)

(* Ends the worker process, if any, and waits for it. *)
let stop t =
  Option.iter
    (fun w ->
      Unix.close w.to_w;
      Unix.close w.from_w;
      ignore (Unix.waitpid [] w.pid);
      t.worker <- None)
    t.worker

let due () = Clock.now () -. !current.ops.last >= interval

(* Between ops: samples the set-up reference if due, and the ops'
   reference if due, returning that sample's time. *)
let tick () =
  let t = !current in
  if t.setup != t.ops && Clock.now () -. t.setup.last >= setup_interval then
    ignore (sample t t.setup : float);
  if due () then Some (sample t t.ops) else None

(* Median time of a reference over the run, s. *)
let measured t r =
  if r.samples = [] then ignore (sample t r : float);
  Stats.median (Array.of_list r.samples)
