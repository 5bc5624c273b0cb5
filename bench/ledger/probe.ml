(* The per-layer probe of a traced run.  After the workload's ops, a
   seeded sample of its devices is replayed one public call at a time,
   each call a child span of one "probe.item" span, on fresh engines.
   The same calls are made on every workload, so each layer number is
   there to compare against the end-to-end numbers of every workload:
   where a layer is on a workload's path its end-to-end metrics should
   move with it, and elsewhere they should not. *)

open Common
module Config = Vdram_core.Config
module Model = Vdram_core.Model
module Engine = Vdram_engine.Engine
module Json = Vdram_serve.Json
module Protocol = Vdram_serve.Protocol
module Render = Vdram_serve.Render
module Lenses = Vdram_analysis.Lenses

let op_base = 1_000_000

(* One lens whose perturbation dirties at least one circuit group, so
   that extract_delta re-extracts part of the base and splices the rest. *)
let delta_lenses =
  Array.of_list (List.filter (fun l -> l.Lenses.dirties <> []) Lenses.all)

let eval_line (d : Gen.device) =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Num 1.0); ("op", Json.Str "eval"); ("config", Json.Obj [ ("source", Json.Str d.Gen.source) ]) ])

let item ~seed ~op (d : Gen.device) =
  (* A fresh record each time, so no fingerprint memo keyed on physical
     identity carries over from an earlier repetition. *)
  let cfg = { d.Gen.config with Config.name = d.Gen.config.Config.name } in
  let p = d.Gen.pattern in
  let lens = Gen.pick (Gen.stream seed (Printf.sprintf "probe/lens/%d" op)) delta_lenses in
  let spec = cfg.Config.spec in
  let sim_trace =
    Vdram_sim.Trace.uniform ~rng:(Vdram_sim.Trace.rng 42) ~requests:2000 ~arrival_gap:8
      ~banks:spec.Vdram_core.Spec.banks ~rows:1024 ~columns:128 ~write_fraction:0.3
  in
  let line = eval_line d in
  Trace.span ~name:"probe.item" ~op (fun root ->
      let call name f = Trace.span ~parent:root ~name ~op (fun _ -> f ()) in
      ignore (call "dsl.elaborate" (fun () -> Vdram_dsl.Elaborate.load_string d.Gen.source));
      ignore (call "lint.run" (fun () -> Vdram_lint.Lint.run d.Gen.source));
      ignore (call "advise.run" (fun () -> Vdram_lint.Advise.run d.Gen.source));
      ignore (call "absint.check" (fun () -> Vdram_lint.Check.run ~samples:50 ~seed:0x5eed d.Gen.source));
      ignore
        (call "sim.simulate" (fun () ->
             Vdram_sim.Sim.simulate ~page_policy:Vdram_sim.Controller.Open_page
               ~power_down:Vdram_sim.Controller.No_power_down cfg sim_trace));
      let e = Engine.create ~jobs:1 () in
      ignore
        (call "engine.fingerprint" (fun () ->
             Vdram_engine.Fingerprint.of_value (Model.physics_projection cfg)));
      ignore (call "engine.geometry" (fun () -> Engine.geometry e cfg));
      ignore (call "engine.extraction" (fun () -> Engine.extraction e cfg));
      ignore (call "engine.eval" (fun () -> Engine.eval e cfg p));
      let ex = call "core.extract" (fun () -> Model.extract cfg) in
      let moved = Lenses.scale lens 1.05 cfg in
      ignore (call "core.extract_delta" (fun () -> Model.extract_delta ~base:ex moved));
      ignore (call "core.mix" (fun () -> Model.pattern_power_staged ex cfg p));
      let j = call "serve.parse" (fun () -> Result.get_ok (Json.parse line)) in
      let req =
        call "serve.decode" (fun () ->
            let r = Result.get_ok (Protocol.decode j) in
            ignore (Protocol.work_key r);
            r)
      in
      let config, pattern =
        call "serve.resolve" (fun () ->
            match req.Protocol.kind with
            | Protocol.Eval { spec; pattern } ->
              let c, stored = Result.get_ok (Protocol.resolve_config spec) in
              (c, Result.get_ok (Protocol.resolve_pattern c stored pattern))
            | _ -> assert false)
      in
      (* The report's evaluations (the patterns Render.power prints)
         first, then the rendering alone over the filled memo. *)
      let reports = Hashtbl.create 8 in
      let eval c q =
        match Hashtbl.find_opt reports q.Vdram_core.Pattern.name with
        | Some r -> r
        | None ->
          let r = Model.pattern_power c q in
          Hashtbl.add reports q.Vdram_core.Pattern.name r;
          r
      in
      let s = config.Config.spec in
      call "core.report_table" (fun () ->
          List.iter
            (fun q -> ignore (eval config q))
            Vdram_core.Pattern.[ idle; idd0 s; idd4r s; idd4w s; idd7 s; pattern ]);
      let text =
        call "serve.render" (fun () ->
            Render.to_string (fun ppf () -> Render.power ~eval ppf config pattern) ())
      in
      ignore
        (call "serve.print" (fun () ->
             Json.to_string
               (Json.Obj
                  [ ("id", Json.Num 1.0); ("status", Json.Str "ok"); ("op", Json.Str "eval");
                    ("text", Json.Str text); ("coalesced", Json.Bool false); ("elapsed_ms", Json.Num 0.1) ]))))

let med name = Trace.median_self name

(* A short served session on a private daemon: the sample's evals, each
   twice (cold then warm engine), one at a time on one connection. *)
let served env sample =
  let socket = Filename.concat env.work "probe.sock" in
  let d, _ = Proc.boot ~vdram:env.vdram ~socket in
  Fun.protect ~finally:(fun () -> Proc.stop d) @@ fun () ->
  let fd = Option.get (Proc.connect socket) in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let ask line =
    let t0 = Clock.now () in
    Proc.write_all fd (line ^ "\n");
    let reply = Proc.read_line ~timeout:60.0 fd in
    let t1 = Clock.now () in
    match Option.map Json.parse reply with
    | Some (Ok j) -> (j, t1 -. t0)
    | _ -> failwith "probe: no reply from the daemon"
  in
  let timings =
    List.concat_map
      (fun dev ->
        List.init 2 (fun _ ->
            let j, lat = ask (eval_line dev) in
            let el = Option.value ~default:Float.nan (Option.bind (Json.mem "elapsed_ms" j) Json.num) in
            (el, (lat *. 1000.0) -. el)))
      sample
  in
  let stats, _ = ask "{\"id\":2,\"op\":\"stats\"}" in
  let _, serve_m = Counters.serve_metrics stats in
  serve_m
  @ [
      ("serve.server_elapsed_ms", Stats.median (Array.of_list (List.map fst timings)));
      ("serve.transport_ms", Stats.median (Array.of_list (List.map snd timings)));
    ]

let run env sample =
  let reps = size env ~full:5 ~quick:1 in
  Trace.enabled := true;
  Fun.protect ~finally:(fun () -> Trace.enabled := false) @@ fun () ->
  List.iteri
    (fun k d ->
      for r = 0 to reps - 1 do
        item ~seed:env.seed ~op:(op_base + (k * reps) + r) d
      done)
    sample;
  let op = op_base - 1 in
  for _ = 1 to size env ~full:10 ~quick:2 do
    ignore (Trace.span ~name:"cli.exec_floor" ~op (fun _ -> Proc.run [| env.vdram; "--version" |]))
  done;
  List.iteri
    (fun k (d : Gen.device) ->
      let path = Filename.concat env.work (Printf.sprintf "probe_%d.dram" k) in
      write_file path d.Gen.source;
      for _ = 1 to size env ~full:3 ~quick:1 do
        ignore (Trace.span ~name:"cli.power" ~op (fun _ -> Proc.run [| env.vdram; "power"; path |]))
      done)
    sample;
  (* The pool: the same corners batch on fresh engines at one and two
     jobs, alternating. *)
  let d = List.hd sample in
  let samples = size env ~full:300 ~quick:30 in
  let corners engine =
    Vdram_analysis.Corners.run ~engine ~samples ~pattern:d.Gen.pattern d.Gen.config
  in
  for _ = 1 to 3 do
    List.iter
      (fun jobs ->
        ignore
          (Trace.span ~name:(Printf.sprintf "engine.pool.jobs%d" jobs) ~op (fun _ ->
               corners (Engine.create ~jobs ()))))
      [ 1; 2 ]
  done;
  (* The store: fill an engine with that batch, flush it to a fresh
     directory, preload it back. *)
  let dir = Filename.concat env.work "probe-store" in
  let e = Engine.create ~jobs:1 ~store:(Engine.store_open ~dir ()) () in
  ignore (corners e);
  Trace.span ~name:"engine.store.flush" ~op (fun _ -> Engine.flush_store e);
  ignore
    (Trace.span ~name:"engine.store.preload" ~op (fun _ ->
         Engine.create ~jobs:1 ~store:(Engine.store_open ~dir ()) ()));
  let serve_m = served env sample in
  let us name = med name *. 1e6 and ms name = med name *. 1e3 in
  [
    ("dsl.elaborate_us", us "dsl.elaborate");
    ("lint.run_us", us "lint.run");
    ("advise.run_us", us "advise.run");
    ("absint.check_ms", ms "absint.check");
    ("sim.simulate_ms", ms "sim.simulate");
    ("engine.fingerprint_us", us "engine.fingerprint");
    ("engine.geometry_us", us "engine.geometry");
    ("engine.extraction_us", us "engine.extraction");
    ("engine.eval_us", us "engine.eval");
    ("core.extract_us", us "core.extract");
    ("core.extract_delta_us", us "core.extract_delta");
    ("core.mix_us", us "core.mix");
    ("serve.parse_us", us "serve.parse");
    ("serve.decode_us", us "serve.decode");
    ("serve.resolve_us", us "serve.resolve");
    ("serve.render_us", us "serve.render");
    ("serve.print_us", us "serve.print");
    ("cli.exec_floor_ms", ms "cli.exec_floor");
    ( "cli.unattributed_ms",
      ms "cli.power" -. ms "cli.exec_floor" -. ms "dsl.elaborate" -. ms "core.report_table"
      -. ms "serve.render" );
    ("engine.pool.speedup", med "engine.pool.jobs1" /. med "engine.pool.jobs2");
    ( "analysis.driver_us_per_item",
      (med "engine.pool.jobs1" /. float_of_int samples *. 1e6)
      -. us "engine.fingerprint" -. us "core.extract" -. us "core.mix" );
    ("engine.store.flush_ms", ms "engine.store.flush");
    ("engine.store.preload_ms", ms "engine.store.preload");
    ("engine.store.bytes", float_of_int (Counters.store_bytes dir));
  ]
  @ serve_m
