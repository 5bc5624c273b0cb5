(* The closed loop over a synchronous op: one caller issues the next op
   when the previous returns, and latency is measured from issue to
   return.  serve_mixed drives its own closed and open phases over two
   connections (wl_serve.ml) and returns the same [phase]. *)

type outcome = { items : int; ok : bool }

type phase = {
  lat : float array;  (** s per op *)
  traced : bool array;  (** whether the op ran inside a recorded span *)
  ends : float array;  (** completion of each op, s of phase time *)
  op_items : int array;
  wall : float;  (** s of phase time *)
  ops : int;
  items : int;
  failed : int;
  refs : (float * float) array;
      (** host-speed reference samples taken in the phase: phase time, s
          of reference (Speed) *)
}

(* Set for a traced run: closed-loop ops then alternate between blocks
   recorded as spans and blocks that are not, so that comparing the two
   measures the tracer's overhead on the same stream. *)
let tracing = ref false
let trace_block = 4

type acc = {
  start : float;
  excluded0 : float;
  mutable l_lat : float list;
  mutable l_traced : bool list;
  mutable l_ends : float list;
  mutable l_items : int list;
  mutable l_refs : (float * float) list;
  mutable n : int;
  mutable a_failed : int;
}

let acc () =
  {
    start = Clock.now ();
    excluded0 = !Clock.excluded;
    l_lat = [];
    l_traced = [];
    l_ends = [];
    l_items = [];
    l_refs = [];
    n = 0;
    a_failed = 0;
  }

(* Phase time: wall time less the bench's excluded work in the phase. *)
let phase_time a = Clock.now () -. a.start -. (!Clock.excluded -. a.excluded0)

let record a ~lat ~traced ~at (o : outcome) =
  a.l_lat <- lat :: a.l_lat;
  a.l_traced <- traced :: a.l_traced;
  a.l_ends <- at :: a.l_ends;
  a.l_items <- o.items :: a.l_items;
  a.n <- a.n + 1;
  if not o.ok then a.a_failed <- a.a_failed + 1

let finish a =
  let arr l = Array.of_list (List.rev l) in
  let op_items = arr a.l_items in
  {
    lat = arr a.l_lat;
    traced = arr a.l_traced;
    ends = arr a.l_ends;
    op_items;
    wall = phase_time a;
    ops = a.n;
    items = Array.fold_left ( + ) 0 op_items;
    failed = a.a_failed;
    refs = arr a.l_refs;
  }

(* Two phases as one: [b]'s ops follow [a]'s. *)
let concat a b =
  {
    lat = Array.append a.lat b.lat;
    traced = Array.append a.traced b.traced;
    ends = Array.append a.ends (Array.map (fun t -> t +. a.wall) b.ends);
    op_items = Array.append a.op_items b.op_items;
    wall = a.wall +. b.wall;
    ops = a.ops + b.ops;
    items = a.items + b.items;
    failed = a.failed + b.failed;
    refs = Array.append a.refs (Array.map (fun (t, d) -> (t +. a.wall, d)) b.refs);
  }

(* The phase cut into one-second windows: their count and width, and
   the window of a phase time. *)
let windows p =
  let k = max 1 (int_of_float p.wall) in
  (k, p.wall /. float_of_int k)

let window_of (k, w) t = max 0 (min (k - 1) (int_of_float (t /. w)))

(* The host speed of each window: the median of the reference samples
   taken in it over [nominal], or [default] where it has none.  The
   host's speed drifts within a run, so each window is scaled by its own
   samples. *)
let window_speeds p ~nominal ~default =
  let ws = windows p in
  let by = Array.make (fst ws) [] in
  Array.iter (fun (t, d) -> let j = window_of ws t in by.(j) <- d :: by.(j)) p.refs;
  Array.map (function [] -> default | l -> Stats.median (Array.of_list l) /. nominal) by

let unscaled p = Array.make (fst (windows p)) 1.0

(* Throughput as the median, over the phase's windows, of the work
   completed per second ([weight i] per op: 1 for ops, the op's items for
   items), each window at its host speed.  Host interference arrives in
   bursts that slow a minority of windows; the median window is what the
   code sustains. *)
let window_rate p ~speeds weight =
  let ((k, w) as ws) = windows p in
  let sums = Array.make k 0.0 in
  Array.iteri (fun i t -> let j = window_of ws t in sums.(j) <- sums.(j) +. weight i) p.ends;
  Stats.median (Array.mapi (fun j s -> s /. w *. speeds.(j)) sums)

(* Op latencies, each at the host speed of the window it ended in. *)
let scaled_lat p ~speeds =
  let ws = windows p in
  Array.mapi (fun i l -> l /. speeds.(window_of ws p.ends.(i))) p.lat

let attempt run i = try run i with _ -> { items = 0; ok = false }

(* Runs for [seconds] of phase time, and at least [min_ops] ops.  After
   op [i], [between i] does the bench's own work (output checks, set-up
   repetitions, reading memory once [i + 1 = min_ops]) outside the op's
   latency and phase time. *)
let closed ?(between = ignore) ~seconds ~min_ops ~kind run =
  let a = acc () in
  while phase_time a < seconds || a.n < min_ops do
    let i = a.n in
    let traced = !tracing && i / trace_block mod 2 = 1 in
    Trace.enabled := traced;
    let t0 = Clock.now () in
    let o = Trace.span ~name:("op." ^ kind i) ~op:i (fun _ -> attempt run i) in
    let t1 = Clock.now () in
    Trace.enabled := false;
    record a ~lat:(t1 -. t0) ~traced ~at:(phase_time a) o;
    Clock.exclude (fun () -> between i);
    Option.iter (fun d -> a.l_refs <- (phase_time a, d) :: a.l_refs) (Speed.tick ())
  done;
  finish a

(* Hex MD5 over a list of result renderings. *)
let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))
