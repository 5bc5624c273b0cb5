(* batch_corners: Corners.run in process, one caller, engine jobs=2, no
   store, a fresh engine per call (one `vdram corners` run without the
   process).  Every draw perturbs every lens, so nearly every item
   misses every cache: compute-bound through fingerprint, extraction,
   mix and the pool. *)

open Common
module Engine = Vdram_engine.Engine
module Corners = Vdram_analysis.Corners
module Pattern = Vdram_core.Pattern

type op = { dev : int; spread : float; seed : int }

let spreads = [| 0.05; 0.10; 0.15 |]

let corners ~engine ~samples devices o =
  let d : Gen.device = devices.(o.dev) in
  Corners.run ~engine ~samples ~spread:o.spread ~seed:o.seed ~pattern:d.Gen.pattern
    d.Gen.config

let floats (d : Corners.distribution) =
  Corners.[ d.mean; d.std; d.min; d.max; d.p05; d.p95 ]

let render (d : Corners.distribution) =
  String.concat " " (string_of_int d.Corners.samples :: List.map g17 (floats d))

let bit_equal (a : Corners.distribution) (b : Corners.distribution) =
  a.Corners.samples = b.Corners.samples
  && a.Corners.failed = b.Corners.failed
  && List.for_all2 same_bits (floats a) (floats b)

let run (env : env) =
  let ddr3 =
    let config = Vdram_configs.Devices.ddr3_2g in
    let pattern = Pattern.idd4r config.Vdram_core.Config.spec in
    { Gen.config; pattern; source = Vdram_dsl.Printer.to_dsl ~pattern config }
  in
  let devices =
    Array.of_list
      (Gen.devices ~seed:env.seed ~prefix:"corners" (size env ~full:30 ~quick:2) @ [ ddr3 ])
  in
  let samples = size env ~full:200 ~quick:20 in
  (* Set-up repetitions, one after every op, so that their median sees
     the same host as the ops do.  Peak memory is read when the phase
     reaches [min_ops]: the same work on every run, however many ops the
     host fits in the window (the process grows with the ops it has
     run). *)
  let setup = ref [] in
  let min_ops = size env ~full:600 ~quick:3 in
  let peak_mem_mb = ref Float.nan in
  let between i =
    let t0 = Clock.now () in
    ignore (Sys.opaque_identity (Engine.create ~jobs:2 ()));
    setup := (Clock.now () -. t0) :: !setup;
    if i + 1 = min_ops then peak_mem_mb := Counters.self_peak_mb ()
  in
  let totals = Counters.engine_totals () in
  let done_ = ref [] in
  (* Op i runs on device i (mod the pool), in a seeded order: every
     device equally often. *)
  let order = Array.init (Array.length devices) Fun.id in
  Gen.shuffle (Gen.stream env.seed "corners/order") order;
  let stream = Gen.stream env.seed "corners/closed" in
  let op i =
    let o =
      {
        dev = order.(i mod Array.length order);
        spread = Gen.pick stream spreads;
        seed = 1 + Gen.int stream 1_000_000_000;
      }
    in
    let engine = Engine.create ~jobs:2 () in
    let d = corners ~engine ~samples devices o in
    Counters.add_engine totals engine;
    done_ := (o, d) :: !done_;
    { Harness.items = samples + 1; ok = d.Corners.failed = 0 }
  in
  let gc0 = Counters.gc_mark () in
  let closed =
    Harness.closed ~between ~seconds:env.seconds ~min_ops
      ~kind:(fun _ -> "corners")
      op
  in
  let setup = Array.of_list !setup in
  let counters =
    Counters.engine_metrics totals @ Counters.gc_metrics ~since:gc0 ~items:closed.Harness.items
  in
  (* Untimed: a seeded one-in-ten subsample against a serial, delta-off
     reference engine. *)
  let all = List.rev !done_ in
  let pick = Gen.stream env.seed "corners/check" in
  let wrong =
    List.filteri (fun i _ -> i = 0 || Gen.int pick 10 = 0) all
    |> List.filter (fun (o, d) ->
           let engine = Engine.create ~jobs:1 ~delta:false () in
           not (bit_equal d (corners ~engine ~samples devices o)))
    |> List.length
  in
  let digest =
    List.filteri (fun i _ -> i < size env ~full:50 ~quick:3) all
    |> List.map (fun (_, d) -> render d)
    |> Harness.digest
  in
  {
    setup;
    closed;
    open_ = None;
    wrong;
    peak_mem_mb = !peak_mem_mb;
    digest;
    counters;
    sample =
      sample_of ~seed:env.seed ~name:"corners/probe" (size env ~full:3 ~quick:1)
        (Array.to_list devices);
  }
