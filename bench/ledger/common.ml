(* What every workload receives and returns. *)

type env = {
  seed : int;
  seconds : float;  (** the timed window *)
  quick : bool;  (** self-test sizes *)
  vdram : string;  (** the vdram executable *)
  examples : string;  (** directory of the shipped .dram files *)
  work : string;  (** scratch directory of this run *)
  rate : float;  (** serve_mixed's open-loop rate R, ops/s (calibration.json) *)
}

type result = {
  setup : float array;  (** set-up repetitions, s *)
  closed : Harness.phase;  (** the gated metrics' ops *)
  open_ : (Harness.phase * float array) option;
      (** serve_mixed's open-loop phase, and how late its generator sent
          each op, s *)
  wrong : int;  (** ops that completed but whose output failed a check *)
  peak_mem_mb : float;
  digest : string;  (** MD5 of the first ops' results, %.17g *)
  counters : (string * float) list;  (** per-layer counters, by metric name *)
  sample : Gen.device list;  (** the seeded devices the probe replays *)
}

let size env ~full ~quick = if env.quick then quick else full

(* Bit-for-bit float equality (nan never equals). *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let g17 = Printf.sprintf "%.17g"

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Seeded subset of [l] with [n] elements, in their original order. *)
let sample_of ~seed ~name n l =
  let a = Array.of_list l in
  let idx = Array.init (Array.length a) Fun.id in
  Gen.shuffle (Gen.stream seed name) idx;
  let keep = Array.sub idx 0 (min n (Array.length a)) in
  Array.sort compare keep;
  Array.to_list (Array.map (fun i -> a.(i)) keep)
