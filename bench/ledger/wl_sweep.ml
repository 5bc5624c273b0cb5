(* batch_sweep: Sensitivity.run and Sweep.run_relative in process, one
   caller, engine jobs=2 over a fresh store.  Items are small
   perturbations of a nominal, so the delta path and geometry hits
   dominate, and keys drawn Zipf(1.0) from a fixed pool repeat, so the
   mix cache hits.  Session 1 starts on a cold store and flushes it;
   session 2 is a new engine preloaded from that store, replaying a
   reshuffled copy of session 1's stream.  Both are closed loops of half
   the window, and the gated metrics count the ops of both. *)

open Common
module Engine = Vdram_engine.Engine
module Sensitivity = Vdram_analysis.Sensitivity
module Sweep = Vdram_analysis.Sweep
module Lenses = Vdram_analysis.Lenses
module Model = Vdram_core.Model

type key =
  | Sens of { dev : int; variation : float }
  | Sw of { dev : int; lens : Lenses.t }

let factors = List.init 9 (fun i -> 0.8 +. (0.05 *. float_of_int i))
let variations = [| 0.05; 0.10; 0.20 |]
let lenses = Array.of_list Lenses.all

(* Sensitivity.run's lens set: every lens but the external supply. *)
let sens_lenses = List.filter (fun l -> l.Lenses.name <> "external voltage Vdd") Lenses.all

type res = Sens_r of Sensitivity.t | Sw_r of Sweep.t

let items = function
  | Sens _ -> (2 * List.length sens_lenses) + 1
  | Sw _ -> List.length factors

let eval engine (devices : Gen.device array) = function
  | Sens { dev; variation } ->
    let d = devices.(dev) in
    Sens_r (Sensitivity.run ~engine ~variation ~pattern:d.Gen.pattern d.Gen.config)
  | Sw { dev; lens } ->
    let d = devices.(dev) in
    Sw_r (Sweep.run_relative ~engine ~lens ~factors ~pattern:d.Gen.pattern d.Gen.config)

let render = function
  | Sens_r s ->
    g17 s.Sensitivity.nominal_power
    :: List.map
         (fun e ->
           Printf.sprintf "%s %s %s" e.Sensitivity.lens_name (g17 e.Sensitivity.power_minus)
             (g17 e.Sensitivity.power_plus))
         s.Sensitivity.entries
    |> String.concat "\n"
  | Sw_r w ->
    List.map (fun s -> g17 s.Sweep.value ^ " " ^ g17 s.Sweep.power) w.Sweep.samples
    |> String.concat "\n"

type expected =
  | Sens_e of float * (string * (float * float)) list  (** nominal, lens -> (-, +) *)
  | Sw_e of float list

(* Every point must be bit-equal to Model.pattern_power on Lenses.scale
   of the nominal configuration. *)
let reference (devices : Gen.device array) key =
  let power (d : Gen.device) lens f =
    (Model.pattern_power (Lenses.scale lens f d.Gen.config) d.Gen.pattern)
      .Vdram_core.Report.power
  in
  match key with
  | Sens { dev; variation } ->
    let d = devices.(dev) in
    Sens_e
      ( (Model.pattern_power d.Gen.config d.Gen.pattern).Vdram_core.Report.power,
        List.map
          (fun l -> (l.Lenses.name, (power d l (1.0 -. variation), power d l (1.0 +. variation))))
          sens_lenses )
  | Sw { dev; lens } -> Sw_e (List.map (power devices.(dev) lens) factors)

let correct expected r =
  match (expected, r) with
  | Sens_e (nominal, points), Sens_r s ->
    same_bits s.Sensitivity.nominal_power nominal
    && List.length s.Sensitivity.entries = List.length points
    && List.for_all
         (fun e ->
           match List.assoc_opt e.Sensitivity.lens_name points with
           | Some (lo, hi) ->
             same_bits e.Sensitivity.power_minus lo && same_bits e.Sensitivity.power_plus hi
           | None -> false)
         s.Sensitivity.entries
  | Sw_e points, Sw_r w ->
    List.length w.Sweep.samples = List.length points
    && List.for_all2 (fun s p -> same_bits s.Sweep.power p) w.Sweep.samples points
  | _ -> false

(* Bit-for-bit equality of two results of one key. *)
let same a b =
  match (a, b) with
  | Sens_r x, Sens_r y ->
    same_bits x.Sensitivity.nominal_power y.Sensitivity.nominal_power
    && List.equal
         (fun e f ->
           e.Sensitivity.lens_name = f.Sensitivity.lens_name
           && same_bits e.Sensitivity.power_minus f.Sensitivity.power_minus
           && same_bits e.Sensitivity.power_plus f.Sensitivity.power_plus)
         x.Sensitivity.entries y.Sensitivity.entries
  | Sw_r x, Sw_r y ->
    List.equal
      (fun s t -> same_bits s.Sweep.value t.Sweep.value && same_bits s.Sweep.power t.Sweep.power)
      x.Sweep.samples y.Sweep.samples
  | _ -> false

let run (env : env) =
  let devices =
    Array.of_list (Gen.devices ~seed:env.seed ~prefix:"sweep" (size env ~full:20 ~quick:3))
  in
  let ndev = Array.length devices in
  (* A pool of keys, a quarter of them sensitivity runs.  Op i is a
     sensitivity run when i mod 4 = 0 (an exact mix), and its key is
     drawn Zipf(1.0) from the keys of its kind. *)
  let keys =
    let r = Gen.stream env.seed "sweep/keys" in
    let n = size env ~full:200 ~quick:12 in
    Array.init n (fun i ->
        if i < n / 4 then Sens { dev = Gen.int r ndev; variation = Gen.pick r variations }
        else Sw { dev = Gen.int r ndev; lens = Gen.pick r lenses })
  in
  let n_sens = Array.length keys / 4 in
  let cdf_sens = Gen.zipf ~s:1.0 n_sens in
  let cdf_sw = Gen.zipf ~s:1.0 (Array.length keys - n_sens) in
  let draw r i =
    if i mod 4 = 0 then Gen.draw_zipf r cdf_sens else n_sens + Gen.draw_zipf r cdf_sw
  in
  let dir = Filename.concat env.work "store" in
  let store () = Engine.store_open ~dir () in
  let totals = Counters.engine_totals () in
  (* Right after its op (outside the timed window, and allocating next
     to nothing, so no collector work is left for the next op) each
     result is compared bit for bit with the first result of its key.
     Only those first results are kept; after the window they are
     checked against the reference, and a wrong one counts once per op
     of its key. *)
  let last = ref None in
  let first = Hashtbl.create 256 in
  let ops_of = Array.make (Array.length keys) 0 in
  let differ = Array.make (Array.length keys) 0 in
  let n_digest = size env ~full:200 ~quick:20 in
  let kept = ref [] and n_kept = ref 0 in
  let check _ =
    Option.iter
      (fun (k, r) ->
        ops_of.(k) <- ops_of.(k) + 1;
        (match Hashtbl.find_opt first k with
         | None -> Hashtbl.add first k r
         | Some r0 -> if not (same r0 r) then differ.(k) <- differ.(k) + 1);
        if !n_kept < n_digest then begin
          kept := r :: !kept;
          incr n_kept
        end)
      !last;
    last := None
  in
  let session engine stream =
    Harness.closed ~between:check ~seconds:(env.seconds /. 2.0)
      ~min_ops:(size env ~full:100 ~quick:10)
      ~kind:(fun _ -> "sweep")
      (fun i ->
        let k = stream i in
        last := Some (k, eval engine devices keys.(k));
        { Harness.items = items keys.(k); ok = true })
  in
  let gc0 = Counters.gc_mark () in
  let s1 = Engine.create ~jobs:2 ~store:(store ()) () in
  let session1_keys = ref [] in
  let closed1 =
    let r = Gen.stream env.seed "sweep/closed" in
    session s1 (fun i ->
        let k = draw r i in
        session1_keys := k :: !session1_keys;
        k)
  in
  let t0 = Clock.now () in
  Engine.flush_store s1;
  let flush_ms = (Clock.now () -. t0) *. 1000.0 in
  Counters.add_engine totals s1;
  let store_bytes = Counters.store_bytes dir in
  (* Set-up: a new engine preloaded from the flushed store, made several
     times; each discarded one (and session 1's engine) is collected
     before the next, so peak memory holds one engine. *)
  let preload () =
    Gc.full_major ();
    let t0 = Clock.now () in
    let e = Engine.create ~jobs:2 ~store:(store ()) () in
    (e, Clock.now () -. t0)
  in
  let setup = Array.init (size env ~full:8 ~quick:2 - 1) (fun _ -> snd (preload ())) in
  let s2, t_last = preload () in
  let setup = Array.append setup [| t_last |] in
  let replay = Array.of_list !session1_keys in
  Gen.shuffle (Gen.stream env.seed "sweep/replay") replay;
  let closed2 = session s2 (fun i -> replay.(i mod Array.length replay)) in
  Counters.add_engine totals s2;
  let closed = Harness.concat closed1 closed2 in
  let counters =
    Counters.engine_metrics totals
    @ Counters.gc_metrics ~since:gc0 ~items:closed.Harness.items
    @ [
        ("engine.store.flush_ms", flush_ms);
        ("engine.store.preload_ms", Stats.median setup *. 1000.0);
        ("engine.store.bytes", float_of_int store_bytes);
      ]
  in
  let peak_mem_mb = Counters.self_peak_mb () in
  let wrong =
    Hashtbl.fold
      (fun k r0 n ->
        n + if correct (reference devices keys.(k)) r0 then differ.(k) else ops_of.(k))
      first 0
  in
  let digest = Harness.digest (List.rev_map render !kept) in
  {
    setup;
    closed;
    open_ = None;
    wrong;
    peak_mem_mb;
    digest;
    counters;
    sample =
      sample_of ~seed:env.seed ~name:"sweep/probe" (size env ~full:3 ~quick:1)
        (Array.to_list devices);
  }
