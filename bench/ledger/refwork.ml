(* The compute host-speed references (see speed.ml), in a process of its
   own so that the heap vdram allocates into never touches it.  For each
   byte read on stdin it works, then writes the byte back: for 'x' the
   same allocating work on the main domain and on one spawned domain
   (the shape of a jobs=2 engine), for 's' light work on the main domain
   only.  It exits at end of input. *)

(* About half a millisecond of float, marshal and hash work. *)
let light () =
  let acc = ref 0.0 in
  for i = 1 to 40 do
    let l = List.init 200 (fun j -> float_of_int (i * j) *. 1.0001) in
    acc := !acc +. List.fold_left ( +. ) 0.0 l;
    ignore (Digest.string (Marshal.to_string l []))
  done;
  !acc

(* About as long, allocating enough that two domains running it meet in
   a stop-the-world minor collection about once a sample, as the
   engine's domains do: contention that slows one core stalls both. *)
let allocating () =
  let acc = ref 0.0 in
  for i = 1 to 20 do
    let l = List.init 200 (fun j -> float_of_int (i * j) *. 1.0001) in
    let garbage = List.init 2000 float_of_int in
    acc := !acc +. List.fold_left ( +. ) 0.0 l +. float_of_int (List.length garbage);
    ignore (Digest.string (Marshal.to_string l []))
  done;
  !acc

let () =
  let rec loop () =
    match input_char stdin with
    | exception End_of_file -> ()
    | c ->
      let r =
        if c = 's' then light () +. light ()
        else
          let d = Domain.spawn allocating in
          let here = allocating () in
          here +. Domain.join d
      in
      ignore (Sys.opaque_identity r);
      output_char stdout c;
      flush stdout;
      loop ()
  in
  loop ()
