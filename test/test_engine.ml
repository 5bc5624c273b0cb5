(* The staged evaluation engine: the parallel pool must be
   bit-identical to serial evaluation, and the stage caches must hit
   and invalidate along the config -> geometry -> extraction -> mix
   pipeline. *)

module Engine = Vdram_engine.Engine
module Pool = Vdram_engine.Pool
module Model = Vdram_core.Model
module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Report = Vdram_core.Report
module Params = Vdram_tech.Params
module Sensitivity = Vdram_analysis.Sensitivity
module Corners = Vdram_analysis.Corners
module Lenses = Vdram_analysis.Lenses
module Contribution = Vdram_circuits.Contribution

let base () = Lazy.force Helpers.ddr3_2g

let scale_bitline cfg factor =
  let t = cfg.Config.tech in
  Config.with_tech cfg { t with Params.c_bitline = t.Params.c_bitline *. factor }

(* ----- pool ---------------------------------------------------------- *)

let pool_ordering () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> (x * x) + 1) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves input order" jobs)
        expected
        (Pool.map ~jobs (fun x -> (x * x) + 1) xs))
    [ 1; 2; 4; 7 ]

let pool_exception_order () =
  (* Several items fail; the error surfaced must be the first failing
     item in input order, regardless of which domain hits it first. *)
  match
    Pool.map ~jobs:4
      (fun i -> if i >= 3 then failwith (string_of_int i) else i)
      (List.init 16 Fun.id)
  with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "first failure in input order" "3" msg

let pool_chunked_determinism () =
  (* Any chunk geometry — single-item steals, odd sizes, one chunk per
     worker, one chunk for everything — must reproduce List.map. *)
  let xs = List.init 257 Fun.id in
  let expected = List.map (fun x -> (x * 3) - 1) xs in
  List.iter
    (fun chunk ->
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "chunk=%d jobs=%d matches List.map" chunk jobs)
            expected
            (Pool.map ~chunk ~jobs (fun x -> (x * 3) - 1) xs))
        [ 2; 4 ])
    [ 1; 3; 64; 1000 ]

let pool_chunked_exception_order () =
  List.iter
    (fun chunk ->
      match
        Pool.map ~chunk ~jobs:4
          (fun i -> if i mod 5 = 3 then failwith (string_of_int i) else i)
          (List.init 64 Fun.id)
      with
      | _ -> Alcotest.fail "expected the worker exception to propagate"
      | exception Failure msg ->
        Alcotest.(check string)
          (Printf.sprintf "chunk=%d: first failure in input order" chunk)
          "3" msg)
    [ 1; 3; 16 ]

let pool_default_chunk () =
  Helpers.check_true "empty input still yields a legal chunk"
    (Pool.default_chunk ~jobs:8 0 >= 1);
  Helpers.check_true "huge inputs are capped"
    (Pool.default_chunk ~jobs:1 1_000_000 <= 1024);
  Alcotest.(check int) "about eight chunks per worker" 4
    (Pool.default_chunk ~jobs:4 128)

let vdram_jobs_env () =
  let saved = Sys.getenv_opt "VDRAM_JOBS" in
  let set v = Unix.putenv "VDRAM_JOBS" v in
  Fun.protect
    ~finally:(fun () -> set (Option.value ~default:"" saved))
    (fun () ->
      set "3";
      Alcotest.(check int) "VDRAM_JOBS=3 honoured" 3 (Pool.default_jobs ());
      set "0";
      Alcotest.(check int) "zero clamped to 1" 1 (Pool.default_jobs ());
      set "-2";
      Alcotest.(check int) "negative clamped to 1" 1 (Pool.default_jobs ());
      set "not-a-number";
      Alcotest.(check int) "garbage falls back to the machine default"
        (Domain.recommended_domain_count ())
        (Pool.default_jobs ()))

(* ----- engine vs model ----------------------------------------------- *)

let eval_matches_model () =
  let cfg = base () in
  let engine = Engine.serial () in
  List.iter
    (fun (label, p) ->
      Helpers.check_true
        (label ^ ": Engine.eval structurally equals Model.pattern_power")
        (Engine.eval engine cfg p = Model.pattern_power cfg p))
    [ ("idd0", Pattern.idd0 cfg.Config.spec);
      ("idd4r", Pattern.idd4r cfg.Config.spec);
      ("idd7_mixed", Pattern.idd7_mixed cfg.Config.spec) ]

let renamed_twin_hits_cache () =
  let cfg = base () in
  let engine = Engine.serial () in
  let p = Pattern.idd0 cfg.Config.spec in
  ignore (Engine.eval engine cfg p);
  let twin = { cfg with Config.name = "renamed twin" } in
  let r = Engine.eval engine twin p in
  let s = Engine.stats engine in
  Alcotest.(check int) "mix stage hit for renamed twin" 1
    s.Engine.mix_stats.hits;
  Alcotest.(check string) "report labelled with the caller's name"
    "renamed twin" r.Report.config_name

(* ----- cache hit and invalidation accounting ------------------------- *)

let cache_counters () =
  let cfg = base () in
  let engine = Engine.serial () in
  let p = Pattern.idd0 cfg.Config.spec in
  ignore (Engine.eval engine cfg p);
  let s = Engine.stats engine in
  Alcotest.(check int) "cold run: one geometry miss" 1
    s.Engine.geometry_stats.misses;
  Alcotest.(check int) "cold run: one extraction miss" 1
    s.Engine.extraction_stats.misses;
  Alcotest.(check int) "cold run: one mix miss" 1 s.Engine.mix_stats.misses;
  ignore (Engine.eval engine cfg p);
  let s = Engine.stats engine in
  Alcotest.(check int) "warm run: mix hit" 1 s.Engine.mix_stats.hits;
  Alcotest.(check int) "warm run: no extra mix miss" 1
    s.Engine.mix_stats.misses;
  (* Same configuration, different pattern: geometry and extraction
     replay from cache, only the mix recomputes. *)
  ignore (Engine.eval engine cfg (Pattern.idd4r cfg.Config.spec));
  let s = Engine.stats engine in
  Alcotest.(check int) "new pattern: extraction hit" 1
    s.Engine.extraction_stats.hits;
  Alcotest.(check int) "new pattern: mix miss" 2 s.Engine.mix_stats.misses

let upstream_invalidation () =
  let cfg = base () in
  let engine = Engine.serial () in
  let p = Pattern.idd0 cfg.Config.spec in
  ignore (Engine.eval engine cfg p);
  (* A bitline-capacitance perturbation leaves the floorplan alone:
     geometry must replay from cache while extraction and mix rerun. *)
  let before = Engine.stats engine in
  ignore (Engine.eval engine (scale_bitline cfg 1.1) p);
  let after = Engine.stats engine in
  let moved f = f after - f before in
  Alcotest.(check int) "perturbed tech: geometry hit" 1
    (moved (fun s -> s.Engine.geometry_stats.hits));
  Alcotest.(check int) "perturbed tech: geometry not recomputed" 0
    (moved (fun s -> s.Engine.geometry_stats.misses));
  Alcotest.(check int) "perturbed tech: extraction miss" 1
    (moved (fun s -> s.Engine.extraction_stats.misses));
  Alcotest.(check int) "perturbed tech: mix miss" 1
    (moved (fun s -> s.Engine.mix_stats.misses))

(* ----- determinism properties ---------------------------------------- *)

(* One engine shared across iterations, so later iterations exercise
   genuine cache hits against cold references. *)
let shared_engine = lazy (Engine.create ~jobs:1 ())

let eval_determinism =
  QCheck.Test.make
    ~name:"eval: warm cache, cold engine and direct model bit-identical"
    ~count:25
    QCheck.(float_range 0.7 1.3)
    (fun factor ->
      let cfg = scale_bitline (base ()) factor in
      let p = Pattern.idd0 cfg.Config.spec in
      let reference = Model.pattern_power cfg p in
      let warm = Lazy.force shared_engine in
      let first = Engine.eval warm cfg p in
      let cached = Engine.eval warm cfg p in
      let cold = Engine.eval (Engine.serial ()) cfg p in
      first = reference && cached = reference && cold = reference)

let map_jobs_determinism =
  QCheck.Test.make ~name:"map_jobs: parallel bit-identical to serial"
    ~count:10
    QCheck.(pair (int_range 2 6) (list_of_size (Gen.int_range 1 12)
                                    (float_range 0.8 1.2)))
    (fun (jobs, factors) ->
      let cfg = base () in
      let p = Pattern.idd0 cfg.Config.spec in
      let cfgs = List.map (scale_bitline cfg) factors in
      let parallel = Engine.create ~jobs () in
      Engine.map_jobs parallel (fun c -> Engine.eval parallel c p) cfgs
      = List.map (fun c -> Model.pattern_power c p) cfgs)

(* ----- fingerprints --------------------------------------------------- *)

let fingerprint_faithful =
  QCheck.Test.make
    ~name:"fingerprint: equal iff physics projections equal, name-blind"
    ~count:40
    QCheck.(pair (float_range 0.7 1.3) (float_range 0.7 1.3))
    (fun (f1, f2) ->
      let module Fp = Vdram_engine.Fingerprint in
      let c1 = scale_bitline (base ()) f1 in
      let c2 = scale_bitline (base ()) f2 in
      let fp c = Fp.of_value (Model.physics_projection c) in
      let renamed = { c1 with Config.name = "fingerprint twin" } in
      Fp.equal (fp c1) (fp renamed)
      && Fp.equal (fp c1) (fp c2)
         = (Model.physics_projection c1 = Model.physics_projection c2))

(* ----- delta extraction ----------------------------------------------- *)

(* The content-addressing contract: for EVERY lens, at a random scale
   on a random base, the spliced extraction must equal the full
   re-extraction bit for bit (record and report alike), the groups the
   splice actually dirtied must be within the lens's declared dirty
   set — an under-declared [Lenses.dirties] table fails here, an
   over-declared one merely wastes splices — and the dirty decision
   itself (the compiled per-group predicates) must agree exactly with
   the marshalled sub-key digests of [Model.group_key], so the two
   encodings of each group's read set cannot drift apart. *)
let delta_matches_full =
  QCheck.Test.make
    ~name:"extract_delta: bit-identical to full for every lens" ~count:8
    QCheck.(pair (float_range 0.85 1.2) (float_range 0.7 1.3))
    (fun (base_factor, scale) ->
      let cfg = scale_bitline (base ()) base_factor in
      let base_ex = Model.extract cfg in
      let p = Pattern.idd7_mixed cfg.Config.spec in
      List.for_all
        (fun lens ->
          let cfg' = Lenses.scale lens scale cfg in
          let full = Model.extract cfg' in
          let delta, outcome = Model.extract_delta ~base:base_ex cfg' in
          delta = full
          && Model.pattern_power_staged delta cfg' p
             = Model.pattern_power_staged full cfg' p
          && (not outcome.Model.fallback)
          && List.for_all
               (fun g -> List.mem g lens.Lenses.dirties)
               outcome.Model.dirtied
          && List.for_all
               (fun g ->
                 List.mem g outcome.Model.dirtied
                 = (Model.group_key base_ex g <> Model.group_key full g))
               Contribution.groups)
        Lenses.all)

let delta_group_keys () =
  (* Scaling the bitline capacitance reaches the wordline (coupling)
     and sense-amplifier (swing) charge models and nothing else: their
     sub-keys must move, the other four must hold bit-still. *)
  let cfg = base () in
  let ex = Model.extract cfg in
  let ex' = Model.extract (scale_bitline cfg 1.1) in
  List.iter
    (fun g ->
      let name = Contribution.group_name g in
      let stable = Model.group_key ex g = Model.group_key ex' g in
      match g with
      | Contribution.Wordline | Contribution.Sense_amp ->
        Helpers.check_true (name ^ " sub-key dirtied") (not stable)
      | _ -> Helpers.check_true (name ^ " sub-key stable") stable)
    Contribution.groups

let engine_delta_path () =
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let cfg' = scale_bitline cfg 1.05 in
  let on = Engine.create ~jobs:1 () in
  let base = Engine.extraction on cfg in
  let r = Engine.eval ~base on cfg' p in
  Helpers.check_true "delta eval bit-identical to the direct model"
    (r = Model.pattern_power cfg' p);
  let ds = (Engine.stats on).Engine.delta_stats in
  Alcotest.(check int) "one delta attempt" 1 ds.Engine.delta_attempts;
  Alcotest.(check int) "no fallback" 0 ds.Engine.delta_fallbacks;
  Alcotest.(check int) "four clean groups spliced" 4
    ds.Engine.groups_spliced;
  (* The switch: a [~delta:false] engine returns the same report and
     never takes the delta path. *)
  let off = Engine.create ~jobs:1 ~delta:false () in
  Helpers.check_true "delta-off engine identical"
    (Engine.eval ~base off cfg' p = r);
  Alcotest.(check int) "delta-off never attempts" 0
    (Engine.stats off).Engine.delta_stats.Engine.delta_attempts;
  (* The base is a hint, never a semantic: the extraction of a device
     with a different node and different logic blocks still yields the
     exact report, through one delta attempt. *)
  let other = Lazy.force Helpers.sdr_128m in
  Helpers.check_true "the other device is unrelated"
    (other.Config.node <> cfg.Config.node
    && other.Config.logic <> cfg.Config.logic);
  let fresh = Engine.create ~jobs:1 () in
  Helpers.check_true "unrelated base: bit-identical to the direct model"
    (Engine.eval ~base:(Model.extract other) fresh cfg' p
    = Model.pattern_power cfg' p);
  Alcotest.(check int) "unrelated base: one delta attempt" 1
    (Engine.stats fresh).Engine.delta_stats.Engine.delta_attempts

let sensitivity_delta_identity () =
  let cfg = base () in
  let on = Engine.create ~jobs:1 () in
  let off = Engine.create ~jobs:1 ~delta:false () in
  let s_on = Sensitivity.run ~engine:on cfg in
  let s_off = Sensitivity.run ~engine:off cfg in
  Helpers.check_true "sensitivity identical with delta on and off"
    (s_on = s_off);
  Helpers.check_true "the delta engine actually took the delta path"
    ((Engine.stats on).Engine.delta_stats.Engine.delta_attempts > 0)

(* ----- persistent store ----------------------------------------------- *)

let store_dir =
  Filename.concat (Filename.get_temp_dir_name ()) "vdram-test-store"

let store_roundtrip () =
  let module Store = Vdram_engine.Store in
  let store () = Engine.store_open ~dir:store_dir () in
  Store.clear (store ());
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let cold = Engine.create ~jobs:1 ~store:(store ()) () in
  let r_cold = Engine.eval cold cfg p in
  Engine.flush_store cold;
  (* A fresh engine on the same directory replays both stages from
     disk: the preload counters see the snapshot, the first eval is a
     pure mix hit, and the replayed report is bit-identical. *)
  let warm = Engine.create ~jobs:1 ~store:(store ()) () in
  Helpers.check_true "snapshots preloaded"
    (Engine.preloaded warm = (1, 1));
  let r_warm = Engine.eval warm cfg p in
  let s = Engine.stats warm in
  Alcotest.(check int) "warm eval is a mix hit" 1 s.Engine.mix_stats.hits;
  Alcotest.(check int) "warm eval misses nothing" 0
    s.Engine.mix_stats.misses;
  Helpers.check_true "disk replay bit-identical" (r_warm = r_cold);
  (* The extraction snapshot is served too, not only the mix one. *)
  ignore (Engine.extraction warm cfg : Vdram_core.Model.extraction);
  Alcotest.(check int) "warm extraction is a hit" 1
    (Engine.stats warm).Engine.extraction_stats.hits;
  Store.clear (store ())

let store_corruption_recovery () =
  let module Store = Vdram_engine.Store in
  let st = Engine.store_open ~dir:store_dir () in
  Store.clear st;
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let seed = Engine.create ~jobs:1 ~store:st () in
  let reference = Engine.eval seed cfg p in
  Engine.flush_store seed;
  (* Total garbage: wrong magic. *)
  Out_channel.with_open_text (Store.path st "extraction") (fun oc ->
      Out_channel.output_string oc "not a vdram store at all");
  (* Right magic and version but a checksum that does not match the
     payload — the guard that keeps Marshal away from hostile bytes. *)
  Out_channel.with_open_text (Store.path st "mix") (fun oc ->
      Out_channel.output_string oc
        (Printf.sprintf "vdram-store 1\n%s\n%s\nnot the payload"
           (Store.version st)
           (Digest.to_hex (Digest.string "something else"))));
  let engine = Engine.create ~jobs:1 ~store:st () in
  Helpers.check_true "corrupt snapshots are discarded"
    (Engine.preloaded engine = (0, 0));
  Alcotest.(check int) "both corruptions are counted, not hidden" 2
    (Engine.discarded engine);
  Helpers.check_true "engine recomputes past the corruption"
    (Engine.eval engine cfg p = reference);
  (* A version-skewed reader must treat good snapshots as misses. *)
  Engine.flush_store engine;
  let skewed = Store.open_ ~dir:store_dir ~version:"some-other-version" () in
  Helpers.check_true "version skew discards the snapshot"
    (match Store.read skewed ~name:"mix" with
     | Store.Corrupt _ -> true
     | Store.Hit _ | Store.Missing -> false);
  Store.clear st

(* ----- store retries, quarantine, eviction ---------------------------- *)

let store_retry_quarantine () =
  let module Store = Vdram_engine.Store in
  let st = Engine.store_open ~dir:store_dir () in
  Store.clear st;
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let seed = Engine.create ~jobs:1 ~store:st () in
  ignore (Engine.eval seed cfg p);
  Engine.flush_store seed;
  Out_channel.with_open_text (Store.path st "mix") (fun oc ->
      Out_channel.output_string oc "not a vdram store at all");
  let h = Engine.store_open ~dir:store_dir () in
  (match Store.read ~retries:1 ~backoff:0.001 h ~name:"mix" with
  | Store.Corrupt reason ->
    Helpers.check_true "the corruption reason is reported"
      (String.length reason > 0)
  | Store.Hit _ | Store.Missing ->
    Alcotest.fail "garbage snapshot must classify as Corrupt")
  |> ignore;
  let s = Store.stats h in
  Alcotest.(check int) "one backed-off retry before giving up" 1
    s.Store.retries;
  Alcotest.(check int) "one snapshot discarded" 1 s.Store.discarded;
  Alcotest.(check int) "the bad file was quarantined" 1 s.Store.quarantined;
  Helpers.check_true "original file moved out of the cache"
    (not (Sys.file_exists (Store.path h "mix")));
  let qdir = Store.quarantine_dir h in
  Helpers.check_true "quarantine keeps the file and a .reason sidecar"
    (Sys.file_exists qdir
    && Array.exists
         (fun f -> Filename.check_suffix f ".reason")
         (Sys.readdir qdir)
    && Array.exists
         (fun f -> Filename.check_suffix f ".cache")
         (Sys.readdir qdir));
  Store.clear h

(* [Store.open_]'s byte cap under each value of [var]; the old value
   is put back after (an unset variable comes back as "", which the
   store treats as unset). *)
let env_caps var cap values =
  let module Store = Vdram_engine.Store in
  let old = Option.value ~default:"" (Sys.getenv_opt var) in
  Fun.protect
    ~finally:(fun () -> Unix.putenv var old)
    (fun () ->
      List.map
        (fun value ->
          Unix.putenv var value;
          cap (Store.open_ ~dir:store_dir ~version:"env" ()))
        values)

let store_eviction_roundtrip () =
  let module Store = Vdram_engine.Store in
  (* A malformed or negative VDRAM_CACHE_MAX_BYTES counts as unset:
     uncapped, never a cap that evicts everything. *)
  Alcotest.(check (list (option int))) "VDRAM_CACHE_MAX_BYTES"
    [ None; None; None; None; Some 20000; Some 0 ]
    (env_caps "VDRAM_CACHE_MAX_BYTES" Store.max_bytes
       [ ""; "32MiB"; "-1"; "garbage"; "20000"; "0" ]);
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "vdram-test-evict"
  in
  let uncapped = Store.open_ ~dir ~version:"evict-test" () in
  Store.clear uncapped;
  let payload tag = Array.init 64 (fun i -> (tag, i)) in
  List.iter
    (fun name -> Store.save uncapped ~name (payload name))
    [ "old"; "mid"; "new" ];
  (* Pin the mtimes so "old" really is the oldest snapshot. *)
  List.iteri
    (fun k name ->
      let t = Unix.time () -. float_of_int ((3 - k) * 3600) in
      Unix.utimes (Store.path uncapped name) t t)
    [ "old"; "mid"; "new" ];
  let size name = (Unix.stat (Store.path uncapped name)).Unix.st_size in
  let cap = size "mid" + size "new" + 1 in
  let capped = Store.open_ ~dir ~max_bytes:cap ~version:"evict-test" () in
  Alcotest.(check (option int)) "cap remembered" (Some cap)
    (Store.max_bytes capped);
  let removed = Store.evict capped in
  Alcotest.(check int) "exactly the oldest snapshot evicted" 1 removed;
  Helpers.check_true "oldest snapshot gone"
    (Store.read capped ~name:"old" = Store.Missing);
  Helpers.check_true "newest snapshot survives the round-trip"
    (Store.read capped ~name:"new" = Store.Hit (payload "new"));
  Helpers.check_true "middle snapshot untouched"
    (Store.read capped ~name:"mid" = Store.Hit (payload "mid"));
  Alcotest.(check int) "eviction counted" 1
    (Store.stats capped).Store.evicted;
  Store.clear capped

let store_quarantine_cap () =
  let module Store = Vdram_engine.Store in
  (* A malformed or negative VDRAM_QUARANTINE_MAX_BYTES counts as
     unset: the 32 MiB default, neither uncapped nor negative. *)
  let default = Some (32 * 1024 * 1024) in
  Alcotest.(check (list (option int))) "VDRAM_QUARANTINE_MAX_BYTES"
    [ default; default; default; default; Some 4096; Some 0 ]
    (env_caps "VDRAM_QUARANTINE_MAX_BYTES" Store.quarantine_max_bytes
       [ ""; "32MiB"; "-1"; "garbage"; "4096"; "0" ]);
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "vdram-test-qcap"
  in
  let st = Store.open_ ~dir ~quarantine_max_bytes:2200 ~version:"qcap" () in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Store.clear st;
  let corrupt name =
    Out_channel.with_open_text (Store.path st name) (fun oc ->
        Out_channel.output_string oc (String.make 2048 'x'));
    match Store.read ~retries:0 ~backoff:0.001 st ~name with
    | Store.Corrupt _ -> ()
    | Store.Hit _ | Store.Missing ->
      Alcotest.fail "garbage snapshot must classify as Corrupt"
  in
  corrupt "alpha";
  corrupt "beta";
  let s = Store.stats st in
  Alcotest.(check int) "both files quarantined" 2 s.Store.quarantined;
  Alcotest.(check int) "quarantined bytes accumulated" (2 * 2048)
    s.Store.quarantined_bytes;
  (* The cap holds one ~2 KiB specimen: quarantining beta must have
     evicted alpha (oldest first, never the file just moved). *)
  Alcotest.(check int) "cap evicted exactly the older specimen" 1
    s.Store.evicted;
  let qdir = Store.quarantine_dir st in
  let specimens =
    Array.to_list (Sys.readdir qdir)
    |> List.filter (fun f -> Filename.check_suffix f ".cache")
  in
  Alcotest.(check (list string)) "the fresh specimen survives"
    [ "beta.cache" ] specimens;
  Store.clear st

let store_flush_incremental () =
  let module Store = Vdram_engine.Store in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "vdram-test-dirty"
  in
  let st = Engine.store_open ~dir () in
  Store.clear st;
  let cfg = base () in
  let e = Engine.create ~jobs:1 ~store:st () in
  Helpers.check_true "cold engine has nothing to flush"
    (not (Engine.store_dirty e));
  ignore (Engine.eval e cfg (Pattern.idd0 cfg.Config.spec) : Report.t);
  Helpers.check_true "a stage miss marks the store dirty"
    (Engine.store_dirty e);
  Engine.flush_store e;
  Helpers.check_true "flushing clears the dirty flag"
    (not (Engine.store_dirty e));
  ignore (Engine.eval e cfg (Pattern.idd0 cfg.Config.spec) : Report.t);
  Helpers.check_true "pure cache hits do not re-dirty"
    (not (Engine.store_dirty e));
  (* A clean flush must rewrite nothing — remove the snapshot and
     watch a no-op flush leave it missing. *)
  Sys.remove (Store.path st "mix");
  Engine.flush_store e;
  Helpers.check_true "clean flush writes no snapshot"
    (not (Sys.file_exists (Store.path st "mix")));
  ignore (Engine.eval e cfg (Pattern.idd4r cfg.Config.spec) : Report.t);
  Helpers.check_true "a fresh miss re-dirties" (Engine.store_dirty e);
  Engine.flush_store e;
  Helpers.check_true "dirty flush rewrites the snapshot"
    (Sys.file_exists (Store.path st "mix"));
  Store.clear st

(* ----- fault plans ---------------------------------------------------- *)

module Supervise = Vdram_engine.Supervise
module Faults = Vdram_engine.Faults

(* A supervisor that deliberately ignores VDRAM_FAULTS, so the suite
   behaves the same even under a chaos environment. *)
let quiet ?policy () = Supervise.create ?policy ~faults:Faults.none ()

let plan_exn s =
  match Faults.parse s with
  | Ok p -> p
  | Error e -> Alcotest.failf "test plan %S did not parse: %s" s e

let faults_grammar () =
  let p = plan_exn "seed=7,rate=0.02,raise=mix" in
  Alcotest.(check int) "seed" 7 p.Faults.seed;
  Helpers.close "rate" 0.02 p.Faults.rate;
  Helpers.check_true "raise=mix parses"
    (p.Faults.action = Some (Faults.Raise Faults.Mix));
  Helpers.check_true "plan round-trips through to_string"
    (Faults.parse (Faults.to_string p) = Ok p);
  let stall = plan_exn "stall=0.25; seed=3" in
  Helpers.check_true "stall clause parses to a mix stall"
    (stall.Faults.action = Some (Faults.Stall (Faults.Mix, 0.25)));
  Helpers.check_true "corrupt=store flag"
    (plan_exn "corrupt=store").Faults.corrupt_store;
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error msg ->
        Helpers.check_true
          (Printf.sprintf "%S yields a diagnostic" bad)
          (String.length msg > 0))
    [ "seed=oops"; "rate=2"; "rate=-0.5"; "raise=teleport"; "stall=-1";
      "corrupt=disk"; "flavour=mango"; "seed" ]

let faulted_is_order_free () =
  let plan = plan_exn "seed=11,rate=0.1,raise=mix" in
  let direct =
    List.init 200 (fun i -> Faults.faulted plan ~batch:0 ~index:i)
  in
  let shuffled =
    List.rev_map
      (fun i -> Faults.faulted plan ~batch:0 ~index:i)
      (List.rev (List.init 200 Fun.id))
  in
  Helpers.check_true "decision is a pure hash of (seed, batch, index)"
    (direct = shuffled);
  Helpers.check_true "roughly rate fraction faulted"
    (let k = List.length (List.filter Fun.id direct) in
     k > 5 && k < 50)

(* ----- supervised runtime --------------------------------------------- *)

let supervised_identity () =
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let cfgs =
    List.init 12 (fun i -> scale_bitline cfg (0.8 +. (0.04 *. float_of_int i)))
  in
  List.iter
    (fun jobs ->
      let engine = Engine.create ~jobs () in
      let plain =
        Engine.map_jobs engine (fun c -> Engine.eval engine c p) cfgs
      in
      let sup = quiet () in
      let outcomes =
        Supervise.map sup engine (fun c -> Engine.eval engine c p) cfgs
      in
      Helpers.check_true
        (Printf.sprintf "jobs=%d: supervised payloads bit-identical" jobs)
        (outcomes = List.map (fun r -> Supervise.Done r) plain);
      Alcotest.(check int) "healthy run records no failures" 0
        (Supervise.counters sup).Supervise.failures)
    [ 1; 4 ]

let supervised_failure_order =
  QCheck.Test.make
    ~name:"supervise: multi-failure records deterministic, input order"
    ~count:15
    QCheck.(list_of_size (Gen.int_range 0 10) (int_range 0 39))
    (fun bad ->
      let n = 40 in
      let bad = List.sort_uniq compare bad in
      let xs = List.init n Fun.id in
      let f i = if List.mem i bad then failwith (string_of_int i) else i in
      let expected =
        List.map
          (fun i ->
            (0, i, "driver", Printexc.to_string (Failure (string_of_int i))))
          bad
      in
      List.for_all
        (fun jobs ->
          let sup = quiet () in
          let engine = Engine.create ~jobs () in
          let outcomes = Supervise.map sup engine f xs in
          let records =
            List.map
              (fun fl ->
                Supervise.
                  (fl.batch, fl.index, fl.stage, fl.message))
              (Supervise.failures sup)
          in
          records = expected
          && List.filter_map
               (function Supervise.Done v -> Some v | _ -> None)
               outcomes
             = List.filter (fun i -> not (List.mem i bad)) xs)
        [ 1; 2; 4 ])

let supervised_strict_reraise () =
  let sup = quiet ~policy:Supervise.strict_policy () in
  let engine = Engine.create ~jobs:4 () in
  (match
     Supervise.map sup engine
       (fun i -> if i >= 3 then failwith (string_of_int i) else i)
       (List.init 16 Fun.id)
   with
  | _ -> Alcotest.fail "strict supervisor must re-raise"
  | exception Failure msg ->
    Alcotest.(check string) "re-raises first failure in input order" "3" msg);
  Alcotest.(check int) "failures still recorded before the re-raise" 13
    (Supervise.counters sup).Supervise.failures

let supervised_abort_budget () =
  (* Serially the batch stops right past the budget.  With several
     workers in flight it may overshoot by the items already claimed,
     but it must still stop claiming work: the rest come back Skipped
     without [f] being called. *)
  let n = 200 in
  List.iter
    (fun jobs ->
      let sup =
        quiet
          ~policy:{ Supervise.default_policy with max_failures = Some 2 }
          ()
      in
      let calls = Atomic.make 0 in
      let f _ =
        Atomic.incr calls;
        failwith "boom"
      in
      let engine = Engine.create ~jobs () in
      (match Supervise.map sup engine f (List.init n Fun.id) with
      | _ ->
        Alcotest.failf "jobs=%d: expected Aborted once the budget is spent"
          jobs
      | exception Supervise.Aborted { failures; tolerated } ->
        Alcotest.(check int) "tolerated budget echoed" 2 tolerated;
        Alcotest.(check int) "every call counted" (Atomic.get calls) failures);
      if jobs = 1 then
        Alcotest.(check int) "stopped right past the budget" 3
          (Atomic.get calls)
      else
        Helpers.check_true
          (Printf.sprintf "jobs=%d: f called fewer than n times" jobs)
          (Atomic.get calls < n);
      Helpers.check_true "supervisor marked aborted" (Supervise.aborted sup);
      Alcotest.(check int) "only the observed failures recorded"
        (Atomic.get calls) (Supervise.counters sup).Supervise.failures)
    [ 1; 2; 4 ]

let supervised_nested_serial () =
  (* A Pool.map reached from inside a supervised item runs on the
     item's own domain instead of spawning more. *)
  let sup = quiet () in
  let item _ =
    let self = Domain.self () in
    List.for_all
      (fun d -> d = self)
      (Pool.map ~jobs:4 (fun _ -> Domain.self ()) (List.init 16 Fun.id))
  in
  let outcomes =
    Supervise.map sup (Engine.create ~jobs:2 ()) item (List.init 8 Fun.id)
  in
  Helpers.check_true "every nested map stayed on its item's domain"
    (List.for_all (( = ) (Supervise.Done true)) outcomes)

let supervised_validate_stage () =
  let sup = quiet () in
  let engine = Engine.create ~jobs:2 () in
  let check v = if Float.is_nan v then Some "non-finite sample" else None in
  let f i = if i = 5 then Float.nan else float_of_int i in
  let outcomes = Supervise.map sup engine ~check f (List.init 8 Fun.id) in
  (match Supervise.failures sup with
  | [ fl ] ->
    Alcotest.(check int) "failed index" 5 fl.Supervise.index;
    Alcotest.(check string) "classified as validate" "validate"
      fl.Supervise.stage;
    Alcotest.(check string) "rejection reason kept" "non-finite sample"
      fl.Supervise.message;
    Helpers.check_true "not flagged injected" (not fl.Supervise.injected)
  | fs -> Alcotest.failf "expected one validate failure, got %d"
            (List.length fs));
  Alcotest.(check int) "the other seven samples survive" 7
    (List.length
       (List.filter
          (function Supervise.Done _ -> true | _ -> false)
          outcomes))

let supervised_by_stage () =
  let sup = quiet () in
  let engine = Engine.create ~jobs:1 () in
  let check v = if v = 2 then Some "two is rejected" else None in
  let f i = if i = 1 then failwith "driver boom" else i in
  ignore
    (Supervise.map sup engine ~check f [ 0; 1; 2; 3 ]
      : int Supervise.outcome list);
  let c = Supervise.counters sup in
  Alcotest.(check int) "two failures" 2 c.Supervise.failures;
  Alcotest.(check (list (pair string int)))
    "per-class counters, sorted, summing to failures"
    [ ("driver", 1); ("validate", 1) ]
    c.Supervise.by_stage;
  (* classify is the single source of those class names. *)
  let stage, injected, _ = Supervise.classify (Failure "x") in
  Alcotest.(check string) "bare exception classifies as driver" "driver" stage;
  Helpers.check_true "not injected" (not injected);
  let stage, injected, _ =
    Supervise.classify (Vdram_engine.Faults.Injected ("mix", 0, 3))
  in
  Alcotest.(check string) "injected fault keeps its stage" "mix" stage;
  Helpers.check_true "flagged injected" injected

let injected_exactness () =
  (* The acceptance contract: the failure report must name exactly the
     items the pure hash says are faulted, at any job count. *)
  let plan = plan_exn "seed=11,rate=0.1,raise=mix" in
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let n = 60 in
  let cfgs =
    List.init n (fun i -> scale_bitline cfg (0.8 +. (0.005 *. float_of_int i)))
  in
  let predicted =
    List.filter
      (fun i -> Faults.faulted plan ~batch:0 ~index:i)
      (List.init n Fun.id)
  in
  Helpers.check_true "the plan faults at least one item" (predicted <> []);
  List.iter
    (fun jobs ->
      let sup = Supervise.create ~faults:plan () in
      let engine = Engine.create ~jobs () in
      ignore
        (Supervise.map sup engine (fun c -> Engine.eval engine c p) cfgs);
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d: failed set = predicted set" jobs)
        predicted
        (List.map (fun fl -> fl.Supervise.index) (Supervise.failures sup));
      List.iter
        (fun (fl : Supervise.failure) ->
          Helpers.check_true "classified injected at the mix stage"
            (fl.injected && fl.stage = "mix"))
        (Supervise.failures sup))
    [ 1; 4 ]

let stall_hits_deadline () =
  let plan = plan_exn "rate=1,stall=0.05" in
  let sup =
    Supervise.create
      ~policy:{ Supervise.default_policy with deadline = Some 0.01 }
      ~faults:plan ()
  in
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let engine = Engine.create ~jobs:1 () in
  let outcomes =
    Supervise.map sup engine
      (fun c -> Engine.eval engine c p)
      [ cfg; scale_bitline cfg 1.1 ]
  in
  Helpers.check_true "every stalled item misses its deadline"
    (List.for_all
       (function Supervise.Failed _ -> true | _ -> false)
       outcomes);
  List.iter
    (fun fl ->
      Alcotest.(check string) "classified as deadline" "deadline"
        fl.Supervise.stage;
      Helpers.check_true "elapsed time covers the stall"
        (fl.Supervise.elapsed_ns >= 40_000_000))
    (Supervise.failures sup);
  Alcotest.(check int) "deadline counter" 2
    (Supervise.counters sup).Supervise.deadline

let fail_log_schema () =
  let plan = plan_exn "seed=11,rate=0.1,raise=mix" in
  let sup = Supervise.create ~faults:plan () in
  let engine = Engine.create ~jobs:2 () in
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let cfgs =
    List.init 40 (fun i -> scale_bitline cfg (0.9 +. (0.004 *. float_of_int i)))
  in
  ignore (Supervise.map sup engine (fun c -> Engine.eval engine c p) cfgs);
  let json = Supervise.report_to_json ~command:"test" sup in
  let has log sub =
    let n = String.length log and m = String.length sub in
    let rec go i = i + m <= n && (String.sub log i m = sub || go (i + 1)) in
    go 0
  in
  Helpers.check_true "fail log parses"
    (Result.is_ok (Vdram_json.Json.parse json));
  List.iter
    (fun needle ->
      Helpers.check_true (Printf.sprintf "fail log carries %s" needle)
        (has json needle))
    [ "\"version\": 1"; "\"command\": \"test\""; "\"keep_going\": true";
      "\"faults\": \"seed=11,rate=0.1,raise=mix\""; "\"aborted\": false";
      "\"stage\": \"mix\""; "\"injected\": true"; "\"fingerprint\"";
      "\"elapsed_ms\"" ];
  Helpers.check_true "no spurious non-injected failures"
    (not (has json "\"injected\": false"));
  let clean = quiet () in
  ignore
    (Supervise.map clean engine (fun c -> Engine.eval engine c p) cfgs);
  Helpers.check_true "clean run reports an empty failure array"
    (has (Supervise.report_to_json ~command:"test" clean) "\"failures\": []")

(* ----- drivers: serial vs parallel ----------------------------------- *)

let sensitivity_serial_parallel () =
  let cfg = base () in
  let serial = Sensitivity.run ~engine:(Engine.serial ()) cfg in
  let parallel = Sensitivity.run ~engine:(Engine.create ~jobs:4 ()) cfg in
  Helpers.check_true "sensitivity identical under --jobs 4"
    (serial = parallel)

let corners_serial_parallel () =
  let cfg = base () in
  let run engine =
    Corners.run ~engine ~samples:60 ~seed:7
      ~pattern:(Pattern.idd7_mixed cfg.Config.spec) cfg
  in
  Helpers.check_true "corners identical under --jobs 4 (same seed)"
    (run (Engine.serial ()) = run (Engine.create ~jobs:4 ()))

let corners_supervised_clean () =
  let cfg = base () in
  let pattern = Pattern.idd7_mixed cfg.Config.spec in
  let plain =
    Corners.run ~engine:(Engine.serial ()) ~samples:40 ~seed:5 ~pattern cfg
  in
  let sup = quiet () in
  let supervised =
    Corners.run
      ~engine:(Engine.create ~jobs:4 ())
      ~supervisor:sup ~samples:40 ~seed:5 ~pattern cfg
  in
  Helpers.check_true "clean supervised corners identical to unsupervised"
    (plain = supervised);
  Alcotest.(check int) "no draws lost" 0 supervised.Corners.failed

let corners_survives_injection () =
  let plan = plan_exn "seed=7,rate=0.05,raise=mix" in
  let cfg = base () in
  let pattern = Pattern.idd7_mixed cfg.Config.spec in
  let sup = Supervise.create ~faults:plan () in
  let dist =
    Corners.run
      ~engine:(Engine.create ~jobs:2 ())
      ~supervisor:sup ~samples:60 ~seed:7 ~pattern cfg
  in
  let failed = (Supervise.counters sup).Supervise.failures in
  Helpers.check_true "the plan actually faulted some draws" (failed > 0);
  Alcotest.(check int) "distribution counts the lost draws" failed
    dist.Corners.failed;
  Alcotest.(check int) "survivors + lost = requested samples" 60
    (dist.Corners.samples + dist.Corners.failed);
  Helpers.check_true "statistics stay finite over the survivors"
    (Float.is_finite dist.Corners.mean && Float.is_finite dist.Corners.std)

let suite =
  [
    Alcotest.test_case "pool preserves input order" `Quick pool_ordering;
    Alcotest.test_case "pool re-raises first error in input order" `Quick
      pool_exception_order;
    Alcotest.test_case "chunked scheduling matches List.map" `Quick
      pool_chunked_determinism;
    Alcotest.test_case "chunked exception replay order" `Quick
      pool_chunked_exception_order;
    Alcotest.test_case "adaptive chunk size" `Quick pool_default_chunk;
    Alcotest.test_case "VDRAM_JOBS clamping" `Quick vdram_jobs_env;
    Alcotest.test_case "eval matches Model.pattern_power" `Quick
      eval_matches_model;
    Alcotest.test_case "renamed twin hits the mix cache" `Quick
      renamed_twin_hits_cache;
    Alcotest.test_case "stage cache counters" `Quick cache_counters;
    Alcotest.test_case "tech perturbation keeps geometry cached" `Quick
      upstream_invalidation;
    Helpers.qcheck eval_determinism;
    Helpers.qcheck map_jobs_determinism;
    Helpers.qcheck fingerprint_faithful;
    Helpers.qcheck delta_matches_full;
    Alcotest.test_case "delta: group sub-keys move only when dirtied" `Quick
      delta_group_keys;
    Alcotest.test_case "delta: engine path identical, counted, switchable"
      `Quick engine_delta_path;
    Alcotest.test_case "delta: sensitivity identical with delta off" `Quick
      sensitivity_delta_identity;
    Alcotest.test_case "disk cache round-trip" `Quick store_roundtrip;
    Alcotest.test_case "disk cache corruption recovery" `Quick
      store_corruption_recovery;
    Alcotest.test_case "sensitivity: serial = parallel" `Quick
      sensitivity_serial_parallel;
    Alcotest.test_case "corners: serial = parallel" `Quick
      corners_serial_parallel;
    Alcotest.test_case "store retry then quarantine" `Quick
      store_retry_quarantine;
    Alcotest.test_case "store size cap evicts oldest first" `Quick
      store_eviction_roundtrip;
    Alcotest.test_case "quarantine cap keeps freshest specimens" `Quick
      store_quarantine_cap;
    Alcotest.test_case "flush is incremental and dirty-tracked" `Quick
      store_flush_incremental;
    Alcotest.test_case "fault plan grammar" `Quick faults_grammar;
    Alcotest.test_case "faulted set is order-free" `Quick
      faulted_is_order_free;
    Alcotest.test_case "supervised = unsupervised on healthy runs" `Quick
      supervised_identity;
    Helpers.qcheck supervised_failure_order;
    Alcotest.test_case "strict policy re-raises in input order" `Quick
      supervised_strict_reraise;
    Alcotest.test_case "failure budget aborts the batch" `Quick
      supervised_abort_budget;
    Alcotest.test_case "nested map in a supervised item is serial" `Quick
      supervised_nested_serial;
    Alcotest.test_case "check rejection is a validate failure" `Quick
      supervised_validate_stage;
    Alcotest.test_case "failure classes roll up by stage" `Quick
      supervised_by_stage;
    Alcotest.test_case "injected failures match the hash prediction" `Quick
      injected_exactness;
    Alcotest.test_case "stalled items miss their deadline" `Quick
      stall_hits_deadline;
    Alcotest.test_case "fail-log schema v1" `Quick fail_log_schema;
    Alcotest.test_case "corners: supervised clean run identical" `Quick
      corners_supervised_clean;
    Alcotest.test_case "corners: partial results under injection" `Quick
      corners_survives_injection;
  ]
