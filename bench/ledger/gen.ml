(* Seeded inputs.  Every generated value comes from a splitmix64 stream
   derived from (--seed, stream name), so one seed always yields the
   same devices, files and op streams, and the streams of different
   phases are independent of how far an earlier phase got. *)

module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Node = Vdram_tech.Node
module Roadmap = Vdram_tech.Roadmap
module Lenses = Vdram_analysis.Lenses

type rng = { mutable s : int64 }

let next64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let stream seed name =
  let r =
    { s = Int64.logxor (Int64.of_int seed) (Int64.of_int (Hashtbl.hash name lsl 20)) }
  in
  ignore (next64 r);
  r

let float r = Int64.to_float (Int64.shift_right_logical (next64 r) 11) *. 0x1p-53
let int r n = Int64.to_int (Int64.unsigned_rem (next64 r) (Int64.of_int n))
let pick r a = a.(int r (Array.length a))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Zipf(s) over ranks 0..n-1, as a cumulative table. *)
let zipf ~s n =
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let draw_zipf r cdf =
  let u = float r in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* ----- devices ------------------------------------------------------- *)

type device = {
  config : Config.t;
  pattern : Pattern.t;
  source : string;  (** [Printer.to_dsl ~pattern config] *)
}

let pattern_names = [| "idd7_mixed"; "idd4r"; "idd0"; "paper_example" |]

let pattern_of name (cfg : Config.t) =
  let spec = cfg.Config.spec in
  match name with
  | "idd7_mixed" -> Pattern.idd7_mixed spec
  | "idd4r" -> Pattern.idd4r spec
  | "idd0" -> Pattern.idd0 spec
  | _ -> Pattern.paper_example

let is_efficiency (l : Lenses.t) =
  String.length l.Lenses.name >= 10 && String.sub l.Lenses.name 0 10 = "generator "

(* Every Table-I lens scaled by a uniform factor inside its group's
   certified default range; efficiencies stay within (0, 1]. *)
let jitter r cfg =
  List.fold_left
    (fun acc (lens : Lenses.t) ->
      let lo, hi = lens.Lenses.range in
      let f = lo +. ((hi -. lo) *. float r) in
      let f =
        if is_efficiency lens then Float.min f (1.0 /. lens.Lenses.get acc) else f
      in
      Lenses.scale lens f acc)
    cfg Lenses.all

(* [n] devices over a balanced design: each knob — roadmap node,
   density, IO width, data rate and pattern — takes each of its levels
   equally often (to within one), in a seeded order of its own.  Every
   seed therefore draws the same population of device shapes, and with
   it the same distribution of per-op cost; the seed decides which
   device gets which combination and the jitter of every Table-I
   parameter.  A combination the geometry rejects is moved to the next
   density level; a description that lints with errors is re-jittered. *)
let devices ~seed ~prefix n =
  let r = stream seed ("devices/" ^ prefix) in
  let balanced levels =
    let a = Array.init n (fun i -> i mod Array.length levels) in
    shuffle r a;
    fun i -> levels.(a.(i))
  in
  let nodes = balanced (Array.of_list Node.all) in
  let densities = [| 0.5; 1.0; 2.0 |] in
  let density = balanced [| 0; 1; 2 |] in
  let io_width = balanced [| 4; 8; 16 |] in
  let rate = balanced [| 0.75; 1.0 |] in
  let pattern = balanced pattern_names in
  List.init n (fun i ->
      let node = nodes i in
      let g = Roadmap.generation node in
      let name = Printf.sprintf "%s_%03d" prefix i in
      let rec attempt k =
        if k > 64 then failwith ("no valid device for " ^ name);
        match
          Config.commodity ~name
            ~density_bits:(g.Roadmap.density_bits *. densities.((density i + (k / 8)) mod 3))
            ~io_width:(io_width i)
            ~datarate:(g.Roadmap.datarate *. rate i)
            ~node ()
        with
        | exception Invalid_argument _ -> attempt (k + 8)
        | base ->
          let config = jitter r base in
          let pattern = pattern_of (pattern i) config in
          let source = Vdram_dsl.Printer.to_dsl ~pattern config in
          if Vdram_lint.Lint.errors (Vdram_lint.Lint.run source) > 0 then
            attempt (k + 1)
          else { config; pattern; source }
      in
      attempt 0)
