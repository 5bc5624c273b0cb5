(* Monotonic seconds: wall-clock deltas can jump under NTP. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Seconds the bench has spent on its own work inside a timed phase
   (host-speed reference samples, output checks, set-up repetitions);
   phase time and op latency leave it out. *)
let excluded = ref 0.0

let exclude f =
  let t0 = now () in
  Fun.protect f ~finally:(fun () -> excluded := !excluded +. (now () -. t0))
