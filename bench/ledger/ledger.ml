(* vdram ledger: end-to-end and per-layer benchmark of vdram.

     ledger.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1|FILE]
                    [--out FILE.jsonl] [--quick] [--vdram EXE] [--root DIR]
                    [--workdir DIR]
     ledger.exe compare PARENT.jsonl CHANGE.jsonl [--root DIR]

   [run] with a workload measures it in this process and prints, last, one
   JSON object: {correct, attempted, failed, metrics}, the metrics being
   BENCHMARK.json's end_to_end set, or its per_layer set when traced.
   Without a workload it runs every workload in a fresh child process.
   With --quick it is the self-test: tiny sizes, every workload traced and
   untraced, and a check that every metric BENCHMARK.json names is
   printed with its unit and every output check passes.  See README.md. *)

module Json = Vdram_serve.Json

module B = Bench_json

let die = B.die

(* ----- the metric catalogue ------------------------------------------ *)

let units =
  [
    ("setup_s", "s"); ("ops_per_s", "1/s"); ("items_per_s", "1/s"); ("p50_ms", "ms");
    ("p95_ms", "ms"); ("p99_ms", "ms"); ("open_p50_ms", "ms"); ("open_p99_ms", "ms");
    ("peak_mem_mb", "MB");
    ("cli.exec_floor_ms", "ms"); ("cli.unattributed_ms", "ms"); ("dsl.elaborate_us", "us");
    ("lint.run_us", "us"); ("advise.run_us", "us"); ("absint.check_ms", "ms");
    ("sim.simulate_ms", "ms"); ("engine.fingerprint_us", "us"); ("engine.geometry_us", "us");
    ("engine.extraction_us", "us"); ("engine.eval_us", "us"); ("core.extract_us", "us");
    ("core.extract_delta_us", "us"); ("core.mix_us", "us");
    ("engine.geometry.hit_ratio", "ratio"); ("engine.extraction.hit_ratio", "ratio");
    ("engine.mix.hit_ratio", "ratio"); ("engine.delta.attempts", "count");
    ("engine.delta.fallbacks", "count"); ("engine.delta.dirtied_per_attempt", "count");
    ("engine.pool.speedup", "x"); ("engine.store.preload_ms", "ms");
    ("engine.store.flush_ms", "ms"); ("engine.store.bytes", "B");
    ("analysis.driver_us_per_item", "us"); ("gc.minor_words_per_item", "words");
    ("gc.major_collections", "count"); ("serve.parse_us", "us"); ("serve.decode_us", "us");
    ("serve.resolve_us", "us"); ("serve.render_us", "us"); ("serve.print_us", "us");
    ("serve.server_elapsed_ms", "ms"); ("serve.transport_ms", "ms");
    ("serve.coalesced_shared", "count"); ("serve.overloaded", "count");
    ("serve.bad_frames", "count"); ("bench.generator_lag_ms", "ms");
    ("bench.trace_overhead_frac", "fraction"); ("bench.speed_factor", "x");
  ]

(* How a run is brought to the references' nominal speed (Speed): the
   ops' reference, nominal and run-median time, s, and the set-up
   reference's speed (measured / nominal). *)
type scale = { nominal : float; reference : float; setup_speed : float }

(* The end-to-end metrics: raw without [scale]; with it, at the
   references' nominal speed (speed = measured / nominal: times divided
   by it, rates multiplied).  Each one-second window of the closed phase
   is scaled by its own reference samples, the open phase by the run's
   median, set-up by its own reference.  BENCHMARK.json gates the scaled
   values; the raw ones go to the JSONL record. *)
let end_to_end ?scale (r : Common.result) =
  let c = r.Common.closed in
  let speed, setup_speed, speeds =
    match scale with
    | None -> (1.0, 1.0, Harness.unscaled c)
    | Some s ->
      let speed = s.reference /. s.nominal in
      (speed, s.setup_speed, Harness.window_speeds c ~nominal:s.nominal ~default:speed)
  in
  let lat = Harness.scaled_lat c ~speeds in
  let ms a p = Stats.percentile a p *. 1000.0 in
  (* Only serve_mixed has an open phase; elsewhere its metrics read 0. *)
  let open_ms p =
    match r.Common.open_ with Some (o, _) -> ms o.Harness.lat p /. speed | None -> 0.0
  in
  [
    ("setup_s", Stats.median r.Common.setup /. setup_speed);
    ("ops_per_s", Harness.window_rate c ~speeds (fun _ -> 1.0));
    ("items_per_s", Harness.window_rate c ~speeds (fun i -> float_of_int c.Harness.op_items.(i)));
    ("p50_ms", ms lat 50.0);
    ("p95_ms", ms lat 95.0);
    ("p99_ms", ms lat 99.0);
    ("open_p50_ms", open_ms 50.0);
    ("open_p99_ms", open_ms 99.0);
    ("peak_mem_mb", r.Common.peak_mem_mb);
  ]

(* Closed-loop ops alternate traced and untraced blocks in a traced run. *)
let trace_overhead (c : Harness.phase) =
  let pick t =
    Array.of_list
      (List.filteri (fun i _ -> c.Harness.traced.(i) = t) (Array.to_list c.Harness.lat))
  in
  let on = pick true and off = pick false in
  if on = [||] || off = [||] then 0.0 else Stats.median on /. Stats.median off -. 1.0

let per_layer ~probe ~speed ~e2e (r : Common.result) =
  let measured =
    probe @ r.Common.counters
    @ Option.fold ~none:[]
        ~some:(fun (_, lag) -> [ ("bench.generator_lag_ms", Stats.percentile lag 99.0 *. 1000.0) ])
        r.Common.open_
    @ [
        ("bench.trace_overhead_frac", trace_overhead r.Common.closed);
        ("bench.speed_factor", speed);
      ]
  in
  (* The workload's own counters override the probe's; a counter the
     workload cannot observe (engine counters of a one-shot process) is 0. *)
  List.filter_map
    (fun (name, _) ->
      if List.mem_assoc name e2e then None
      else
        let v = List.fold_left (fun v (n, x) -> if n = name then Some x else v) None measured in
        Some (name, Option.value v ~default:0.0))
    units

(* Model-vs-datasheet error of Figures 8/9: mean |model - vendor mean| /
   vendor mean over every point and assumed node.  A speed-only change
   leaves it (and the result digest) identical. *)
let datasheet_error () =
  let module C = Vdram_datasheets.Compare in
  let errs =
    List.concat_map
      (fun (row : C.row) ->
        let mean = Vdram_datasheets.Idd.mean_ma row.C.point in
        List.map (fun (_, m) -> Float.abs (m -. mean) /. mean) row.C.model_ma)
      (C.fig8 () @ C.fig9 ())
  in
  List.fold_left ( +. ) 0.0 errs /. float_of_int (List.length errs)

(* ----- run ------------------------------------------------------------ *)

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float option;
  mutable trace : string;
  mutable out : string option;
  mutable quick : bool;
  mutable vdram : string;
  mutable root : string;
  mutable workdir : string;
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Each workload with the host-speed references that match the shape of
   its ops and of its set-up. *)
let workloads =
  Speed.
    [
      ("cli_oneshot", ((Spawn, Spawn), Wl_cli.run));
      ("batch_corners", ((Compute, Serial), Wl_corners.run));
      ("batch_sweep", ((Compute, Serial), Wl_sweep.run));
      ("serve_mixed", ((Compute, Spawn), Wl_serve.run));
    ]

let trace_file o w =
  match o.trace with
  | "0" -> None
  | "1" ->
    Some (Filename.concat o.workdir (Printf.sprintf "trace-%s-seed%d.json" w o.seed))
  | f -> Some (Filename.remove_extension f ^ "-" ^ w ^ Filename.extension f)

let json_metrics (specs : B.metric list) values =
  Json.Obj
    (List.map
       (fun s ->
         ( s.B.name,
           Json.Obj
             [ ("value", Json.Num (List.assoc s.B.name values)); ("unit", Json.Str s.B.unit_) ] ))
       specs)

let run_one o bench w =
  let (kind, setup_kind), run =
    try List.assoc w workloads with Not_found -> die "unknown workload %S" w
  in
  if not (List.mem w bench.B.workloads) then die "%s is not in BENCHMARK.json" w;
  let traced = trace_file o w in
  let work = Filename.concat o.workdir w in
  rm_rf work;
  mkdir_p work;
  let env =
    {
      Common.seed = o.seed;
      seconds = Option.value o.seconds ~default:bench.B.run_seconds;
      quick = o.quick;
      vdram = o.vdram;
      examples = Filename.concat o.root "examples";
      work;
      rate = B.open_rate o.root;
    }
  in
  Harness.tracing := traced <> None;
  let refs = Speed.create ~setup:setup_kind kind in
  Speed.current := refs;
  let r, reference, setup_reference =
    Fun.protect ~finally:(fun () -> Speed.stop refs) @@ fun () ->
    let r = run env in
    (r, Speed.measured refs refs.Speed.ops, Speed.measured refs refs.Speed.setup)
  in
  let nominal k = B.reference_nominal o.root (Speed.kind_name k) in
  let scale =
    { nominal = nominal kind; reference; setup_speed = setup_reference /. nominal setup_kind }
  in
  let speed = reference /. scale.nominal in
  let probe = if traced <> None then Probe.run env r.Common.sample else [] in
  let excess = if traced <> None then Trace.accounting_excess () else 0.0 in
  Option.iter Trace.write traced;
  rm_rf work;
  let e2e = end_to_end ~scale r in
  let values = e2e @ per_layer ~probe ~speed ~e2e r in
  let specs = if traced = None then bench.B.end_to_end else bench.B.per_layer in
  List.iter
    (fun s ->
      match List.assoc_opt s.B.name units with
      | Some u when u = s.B.unit_ -> ()
      | _ -> die "BENCHMARK.json metric %s (%s) is not one the ledger measures" s.B.name s.B.unit_)
    specs;
  let phases = r.Common.closed :: Option.to_list (Option.map fst r.Common.open_) in
  let attempted = List.fold_left (fun a p -> a + p.Harness.ops) 0 phases in
  let failed = List.fold_left (fun a p -> a + p.Harness.failed) r.Common.wrong phases in
  let finite = List.for_all (fun s -> Float.is_finite (List.assoc s.B.name values)) specs in
  let correct = failed = 0 && finite && excess <= 0.05 in
  let ds = datasheet_error () in
  Printf.printf "workload %s seed %d%s: %d ops (%d closed), %d failed (%d wrong output)\n" w o.seed
    (if traced = None then "" else " traced")
    attempted r.Common.closed.Harness.ops failed r.Common.wrong;
  Printf.printf "  result digest %s  datasheet error %.17g\n" r.Common.digest ds;
  if traced <> None then
    Printf.printf "  trace %s  span accounting excess %.3g\n" (Option.get traced) excess;
  List.iter
    (fun s -> Printf.printf "  %-34s %14.6g %s\n" s.B.name (List.assoc s.B.name values) s.B.unit_)
    specs;
  Option.iter
    (fun path ->
      let record =
        Json.Obj
          [
            ("workload", Json.Str w); ("seed", Json.Num (float_of_int o.seed));
            ("trace", Json.Bool (traced <> None)); ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("closed_ops", Json.Num (float_of_int r.Common.closed.Harness.ops));
            ("failed", Json.Num (float_of_int failed));
            ("wrong", Json.Num (float_of_int r.Common.wrong));
            ("digest", Json.Str r.Common.digest); ("datasheet_error", Json.Num ds);
            ("reference_s", Json.Num reference);
            ("setup_reference_s", Json.Num setup_reference);
            ("raw", Json.Obj (List.map (fun (n, v) -> (n, Json.Num v)) (end_to_end r)));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (List.assoc n units)) ]))
                   values) );
          ]
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          output_string oc (Json.to_string record ^ "\n")))
    o.out;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", json_metrics specs values);
          ]))

(* Every workload in its own process; returns each child's last line. *)
let run_children o bench ~traces =
  List.concat_map
    (fun w ->
      List.map
        (fun trace ->
          let args =
            [ "run"; "--workload"; w; "--seed"; string_of_int o.seed; "--trace"; trace;
              "--vdram"; o.vdram; "--root"; o.root; "--workdir"; o.workdir ]
            @ (match o.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
            @ (match o.out with Some f -> [ "--out"; f ] | None -> [])
            @ if o.quick then [ "--quick" ] else []
          in
          let code, out =
            Proc.run ~stderr:Unix.stderr (Array.of_list (Sys.executable_name :: args))
          in
          if not o.quick then begin
            print_string out;
            flush stdout
          end;
          let last =
            List.fold_left (fun acc l -> if l = "" then acc else l) "" (String.split_on_char '\n' out)
          in
          (w, trace, code, Json.parse last))
        traces)
    bench.B.workloads

(* The self-test's assertions over the children's result lines. *)
let self_test bench results =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun (w, trace, code, parsed) ->
      match parsed with
      | _ when code <> 0 -> fail "%s (trace %s): exit %d" w trace code
      | Error e -> fail "%s (trace %s): no result line (%s)" w trace e
      | Ok j ->
        if Json.mem "correct" j <> Some (Json.Bool true) then fail "%s (trace %s): not correct" w trace;
        if Option.bind (Json.mem "failed" j) Json.int_ <> Some 0 then fail "%s (trace %s): failures" w trace;
        let specs = if trace = "0" then bench.B.end_to_end else bench.B.per_layer in
        let got = Option.value ~default:[] (Option.bind (Json.mem "metrics" j) Json.obj) in
        if List.length got <> List.length specs then fail "%s (trace %s): %d metrics, want %d" w trace (List.length got) (List.length specs);
        List.iter
          (fun s ->
            match List.assoc_opt s.B.name got with
            | None -> fail "%s: metric %s not printed" w s.B.name
            | Some m ->
              if Option.bind (Json.mem "unit" m) Json.str <> Some s.B.unit_ then
                fail "%s: metric %s printed without unit %s" w s.B.name s.B.unit_;
              if Option.bind (Json.mem "value" m) Json.num = None then
                fail "%s: metric %s has no numeric value" w s.B.name)
          specs)
    results;
  match !problems with
  | [] -> print_endline "ledger self-test: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("ledger self-test: " ^ p)) (List.rev ps);
    exit 1

let run_cmd argv =
  let o =
    {
      workload = None; seed = 1; seconds = None; trace = "0"; out = None; quick = false;
      vdram = "_build/default/bin/vdram.exe"; root = "."; workdir = "_build/ledger";
    }
  in
  let spec =
    [
      ("--workload", Arg.String (fun s -> o.workload <- Some s), "W  one workload (default: all)");
      ("--seed", Arg.Int (fun n -> o.seed <- n), "N  input seed (dev 1, held-out 2)");
      ("--seconds", Arg.Float (fun s -> o.seconds <- Some s), "S  timed window per workload");
      ("--trace", Arg.String (fun s -> o.trace <- s), "0|1|FILE  traced run (per-layer metrics)");
      ("--out", Arg.String (fun s -> o.out <- Some s), "FILE.jsonl  append one record per run");
      ("--quick", Arg.Unit (fun () -> o.quick <- true), " self-test sizes");
      ("--vdram", Arg.String (fun s -> o.vdram <- s), "EXE  the vdram binary");
      ("--root", Arg.String (fun s -> o.root <- s), "DIR  checkout root (BENCHMARK.json, examples/)");
      ("--workdir", Arg.String (fun s -> o.workdir <- s), "DIR  scratch and trace directory");
    ]
  in
  (try Arg.parse_argv ~current:(ref 0) argv spec (fun a -> die "unexpected argument %S" a) "ledger.exe run [options]"
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  if not (Sys.file_exists o.vdram) then die "no vdram binary at %s" o.vdram;
  let bench = B.read o.root in
  mkdir_p o.workdir;
  match (o.workload, o.quick) with
  | Some w, _ -> run_one o bench w
  | None, true ->
    if o.seconds = None then o.seconds <- Some 0.2;
    let results = run_children o bench ~traces:[ "0"; Filename.concat o.workdir "trace.json" ] in
    List.iter
      (fun w ->
        let f = Filename.concat o.workdir ("trace-" ^ w ^ ".json") in
        match Json.parse (In_channel.with_open_bin f In_channel.input_all) with
        | Ok j when Option.bind (Json.mem "traceEvents" j) Json.list_ <> Some [] -> ()
        | _ -> die "self-test: %s is not a trace-event file" f)
      bench.B.workloads;
    self_test bench results
  | None, false ->
    let results = run_children o bench ~traces:[ o.trace ] in
    let ok (_, _, code, r) =
      code = 0 && match r with Ok j -> Json.mem "correct" j = Some (Json.Bool true) | Error _ -> false
    in
    if not (List.for_all ok results) then exit 1

let () =
  (* A daemon that dies mid-run must surface as a write error, not kill
     the client. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "run" :: _ -> run_cmd (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  | _ :: "compare" :: rest -> Compare.main rest
  | _ ->
    prerr_endline "usage: ledger.exe run [options] | ledger.exe compare PARENT.jsonl CHANGE.jsonl";
    exit 2
