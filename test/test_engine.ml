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
module Read_set = Vdram_core.Read_set

let base () = Lazy.force Helpers.ddr3_2g

let scale_bitline cfg factor =
  let t = cfg.Config.tech in
  Config.with_tech cfg { t with Params.c_bitline = t.Params.c_bitline *. factor }

(* ----- pool ---------------------------------------------------------- *)

(* A jobs:2 map over two single-item chunks.  An item the caller runs
   waits (up to 5 s) until another domain has run one, so a map that
   can reach a helper does; under load the helper may run both.
   Returns the domains that ran the items. *)
let rendezvous_map () =
  let caller = Domain.self () in
  let other = Atomic.make false in
  Pool.map ~chunk:1 ~jobs:2
    (fun _ ->
      let self = Domain.self () in
      if self <> caller then Atomic.set other true
      else begin
        let deadline = Unix.gettimeofday () +. 5. in
        while (not (Atomic.get other)) && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done
      end;
      self)
    [ 0; 1 ]

let pool_ordering () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> (x * x) + 1) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves input order" jobs)
        expected
        (Pool.map ~jobs (fun x -> (x * x) + 1) xs))
    [ 1; 2; 4; 7 ];
  (* Helpers are kept between maps: fifty jobs:2 maps, each of which
     reaches a helper, run on the caller and one helper only. *)
  let ids =
    List.sort_uniq compare (List.concat (List.init 50 (fun _ -> rendezvous_map ())))
  in
  Helpers.check_true "50 jobs:2 maps reached a helper"
    (List.exists (fun d -> d <> Domain.self ()) ids);
  Helpers.check_true "50 jobs:2 maps ran on at most 2 domains"
    (List.length ids <= 2);
  (* Two threads mapping at once: one owns the helpers, the other runs
     on its caller, and both get List.map. *)
  let outputs = Array.make 2 [] in
  let threads =
    List.init 2 (fun t ->
        Thread.create
          (fun () ->
            outputs.(t) <-
              List.init 20 (fun _ -> Pool.map ~jobs:2 (fun x -> (x * x) + 1) xs))
          ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun t maps ->
      List.iter
        (Alcotest.(check (list int))
           (Printf.sprintf "thread %d: concurrent map is List.map" t)
           expected)
        maps)
    outputs

let pool_exception_order () =
  (* Several items fail; the error surfaced must be the first failing
     item in input order, regardless of which domain hits it first. *)
  (match
     Pool.map ~jobs:4
       (fun i -> if i >= 3 then failwith (string_of_int i) else i)
       (List.init 16 Fun.id)
   with
   | _ -> Alcotest.fail "expected the worker exception to propagate"
   | exception Failure msg ->
     Alcotest.(check string) "first failure in input order" "3" msg);
  Helpers.check_true "the helpers survive a failed map"
    (List.exists (fun d -> d <> Domain.self ()) (rendezvous_map ()))

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

(* ----- pool: whole jobs ----------------------------------------------- *)

(* Each job waits until both have started, so they can only finish if
   they run at once, on two domains; the timeout turns a hang into a
   failure. *)
let run_at_once () =
  let caller = (Domain.self () :> int) in
  let started = Atomic.make 0 in
  let job _post =
    Atomic.incr started;
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    (Atomic.get started, (Domain.self () :> int))
  in
  let results = Array.make 2 (0, caller) in
  let threads =
    List.init 2 (fun i ->
        Thread.create
          (fun () -> results.(i) <- Pool.run ~jobs:2 ~on_post:ignore job)
          ())
  in
  List.iter Thread.join threads;
  Array.iter
    (fun (seen, domain) ->
      Alcotest.(check int) "both jobs started before either finished" 2 seen;
      Helpers.check_true "a job runs off the caller's domain"
        (domain <> caller))
    results;
  Helpers.check_true "the jobs ran on two domains"
    (snd results.(0) <> snd results.(1))

(* With [jobs] pooled domains busy a job runs on its caller at once.
   Three jobs that each wait until all three have started can only
   finish if the third does not queue behind the two busy domains, so
   exactly one runs on the caller's domain. *)
let run_never_queues () =
  let caller = (Domain.self () :> int) in
  let started = Atomic.make 0 in
  let job _post =
    Atomic.incr started;
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get started < 3 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    (Atomic.get started, (Domain.self () :> int))
  in
  let results = Array.make 3 (0, caller) in
  let threads =
    List.init 3 (fun i ->
        Thread.create
          (fun () -> results.(i) <- Pool.run ~jobs:2 ~on_post:ignore job)
          ())
  in
  List.iter Thread.join threads;
  Array.iter
    (fun (seen, _) ->
      Alcotest.(check int) "all three started before any finished" 3 seen)
    results;
  Alcotest.(check int) "two on pooled domains, one on its caller" 1
    (Array.fold_left
       (fun n (_, domain) -> if domain = caller then n + 1 else n)
       0 results)

(* A job's messages are handled by the thread that submitted it, in
   order, so a handler that blocks (a socket write) never holds the
   pooled domain. *)
let run_posts_on_caller () =
  let caller = (Domain.self () :> int) in
  let thread = Thread.id (Thread.self ()) in
  let seen = ref [] in
  let on_post m =
    seen := (m, Thread.id (Thread.self ()), (Domain.self () :> int)) :: !seen
  in
  let domain =
    Pool.run ~jobs:1 ~on_post (fun post ->
        List.iter post [ 1; 2; 3 ];
        (Domain.self () :> int))
  in
  Helpers.check_true "the job ran on a pooled domain" (domain <> caller);
  Alcotest.(check (list int)) "messages in order" [ 1; 2; 3 ]
    (List.rev_map (fun (m, _, _) -> m) !seen);
  List.iter
    (fun (_, th, d) ->
      Helpers.check_true "handled on the submitting thread"
        (th = thread && d = caller))
    !seen

let run_reraises () =
  (match Pool.run ~jobs:1 ~on_post:ignore (fun _ -> failwith "job boom") with
   | () -> Alcotest.fail "the job's exception was lost"
   | exception Failure m ->
     Alcotest.(check string) "re-raised in the submitting thread" "job boom" m);
  Alcotest.(check int) "the domain runs the next job" 7
    (Pool.run ~jobs:1 ~on_post:ignore (fun _ -> 7))

(* Two overlapping jobs at jobs:2, each mapping two single-item chunks
   at jobs:2.  An item waits (up to 0.5 s) until all four have started,
   so the maps overlap and every domain that can take an item does.
   The jobs hold both domains the cap allows, so the maps find no third
   to help: everything computes on at most two domains besides main. *)
let run_maps_within_jobs () =
  let started = Atomic.make 0 and items = Atomic.make 0 in
  let wait_for counter n patience =
    let deadline = Unix.gettimeofday () +. patience in
    while Atomic.get counter < n && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done
  in
  let item _ =
    Atomic.incr items;
    wait_for items 4 0.5;
    Domain.self ()
  in
  let job _post =
    Atomic.incr started;
    wait_for started 2 5.0;
    Pool.map ~chunk:1 ~jobs:2 item [ 0; 1 ]
  in
  let results = Array.make 2 [] in
  let threads =
    List.init 2 (fun i ->
        Thread.create
          (fun () -> results.(i) <- Pool.run ~jobs:2 ~on_post:ignore job)
          ())
  in
  List.iter Thread.join threads;
  let domains =
    List.sort_uniq compare (List.concat (Array.to_list results))
  in
  Helpers.check_true "no item ran on the main domain"
    (not (List.mem (Domain.self ()) domains));
  Helpers.check_true
    (Printf.sprintf "%d domains besides main, at most 2" (List.length domains))
    (List.length domains <= 2)

(* A lone job's map borrows an idle domain of the same set. *)
let run_map_borrows () =
  let self, items =
    Pool.run ~jobs:2 ~on_post:ignore (fun _ ->
        (Domain.self (), rendezvous_map ()))
  in
  Helpers.check_true "the job ran off the main domain" (self <> Domain.self ());
  Helpers.check_true "the job's map reached a second domain"
    (List.exists (fun d -> d <> self) items)

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

(* A storeless engine keeps a value on its key's second miss, so the
   twin's first eval keeps the value only if it shares the original's
   key: then the twin's second eval hits. *)
let renamed_twin_hits_cache () =
  let cfg = base () in
  let engine = Engine.serial () in
  let p = Pattern.idd0 cfg.Config.spec in
  ignore (Engine.eval engine cfg p);
  let twin = { cfg with Config.name = "renamed twin" } in
  ignore (Engine.eval engine twin p);
  let r = Engine.eval engine twin p in
  let s = Engine.stats engine in
  Alcotest.(check int) "mix stage hit for renamed twin" 1
    s.Engine.mix_stats.hits;
  Alcotest.(check string) "report labelled with the caller's name"
    "renamed twin" r.Report.config_name;
  Alcotest.(check string) "the original keeps its own name"
    cfg.Config.name (Engine.eval engine cfg p).Report.config_name;
  Alcotest.(check int) "the original hits the twin's entry" 2
    (Engine.stats engine).Engine.mix_stats.hits

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
  (* A storeless engine kept nothing on the first miss: the second run
     misses every stage again, and keeps what it computes. *)
  ignore (Engine.eval engine cfg p);
  let s = Engine.stats engine in
  Alcotest.(check (list int)) "second run: a second miss per stage, no hit"
    [ 2; 2; 2; 0; 0; 0 ]
    [ s.Engine.geometry_stats.misses; s.Engine.extraction_stats.misses;
      s.Engine.mix_stats.misses; s.Engine.geometry_stats.hits;
      s.Engine.extraction_stats.hits; s.Engine.mix_stats.hits ];
  ignore (Engine.eval engine cfg p);
  let s = Engine.stats engine in
  Alcotest.(check int) "warm run: mix hit" 1 s.Engine.mix_stats.hits;
  Alcotest.(check int) "warm run: no extra mix miss" 2
    s.Engine.mix_stats.misses;
  (* Same configuration, different pattern: geometry and extraction
     replay from cache, only the mix recomputes. *)
  ignore (Engine.eval engine cfg (Pattern.idd4r cfg.Config.spec));
  let s = Engine.stats engine in
  Alcotest.(check int) "new pattern: extraction hit" 1
    s.Engine.extraction_stats.hits;
  Alcotest.(check int) "new pattern: mix miss" 3 s.Engine.mix_stats.misses

let upstream_invalidation () =
  let cfg = base () in
  let engine = Engine.serial () in
  let p = Pattern.idd0 cfg.Config.spec in
  (* Twice: a storeless engine keeps the base's stages on their second
     miss. *)
  ignore (Engine.eval engine cfg p);
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

(* The engine keys a configuration by one fingerprint per field; the
   whole-record key it replaced, [Fp.of_value (Model.physics_projection
   c)], is the reference.  A storeless engine keeps a value on its key's
   second miss, so over one engine every eval must hit the mix cache
   exactly when the reference equals those of at least two earlier
   evals.  Siblings (base variants differing in one field) are
   evaluated back to back, so the key's per-field memo always holds a
   sibling; every field is moved by at least one of them, so a key that
   left any field out would hit where the reference misses — in the
   first pass for a field several siblings move, in the second for a
   field only one moves. *)
let fingerprint_faithful =
  QCheck.Test.make
    ~name:"fingerprint: equal iff physics projections equal, name-blind"
    ~count:20
    QCheck.(float_range 0.7 1.3)
    (fun factor ->
      let module Fp = Vdram_engine.Fingerprint in
      let cfg = base () in
      let other = Lazy.force Helpers.sdr_128m in
      let p = Pattern.idd0 cfg.Config.spec in
      let engine = Engine.serial () in
      let seen = ref [] in
      let hits c =
        let before = (Engine.stats engine).Engine.mix_stats.hits in
        ignore (Engine.eval engine c p : Report.t);
        let hit = (Engine.stats engine).Engine.mix_stats.hits > before in
        let reference = Fp.of_value (Model.physics_projection c) in
        let earlier = List.length (List.filter (Fp.equal reference) !seen) in
        seen := reference :: !seen;
        if hit <> (earlier >= 2) then
          QCheck.Test.fail_reportf
            "eval %d: hit %b, whole-record key seen %d times before"
            (List.length !seen) hit earlier;
        hit
      in
      (* The fields no lens reaches, each moved alone. *)
      let field_siblings =
        [ { cfg with Config.node = other.Config.node };
          { cfg with Config.spec = other.Config.spec };
          { cfg with Config.floorplan = other.Config.floorplan };
          { cfg with Config.buses = other.Config.buses };
          { cfg with Config.input_receivers = cfg.Config.input_receivers + 1 };
          Config.with_activation_fraction cfg
            (cfg.Config.activation_fraction *. 0.5) ]
      in
      let lens_siblings = List.map (fun l -> Lenses.scale l factor cfg) Lenses.all in
      let siblings = field_siblings @ lens_siblings in
      let last = List.nth siblings (List.length siblings - 1) in
      let deep_copy (c : Config.t) : Config.t =
        Marshal.from_string (Marshal.to_string c []) 0
      in
      let draw =
        List.fold_left (fun c l -> Lenses.scale l factor c) cfg Lenses.all
      in
      let fresh = List.for_all (fun c -> not (hits c)) (cfg :: field_siblings) in
      List.iter (fun c -> ignore (hits c : bool)) lens_siblings;
      (* Second sight: the engine keeps each value, and a key shared by
         two references hits. *)
      List.iter (fun c -> ignore (hits c : bool)) (List.rev (cfg :: siblings));
      fresh
      && hits { last with Config.name = "fingerprint twin" }
      && hits (deep_copy (List.hd siblings))
      && List.for_all hits (List.rev siblings)
      && not (hits draw))

(* ----- delta extraction ----------------------------------------------- *)

(* The devices the read-set tests run over: the seven shipped ones and
   a 55 nm commodity part in each bitline style, so both sense-amp
   branches are traced. *)
let delta_devices =
  lazy
    (let module Dv = Vdram_configs.Devices in
     let module N = Vdram_tech.Node in
     let module G = Vdram_floorplan.Array_geometry in
     [ Dv.sdr_128m; Dv.ddr_256m; Dv.ddr3_2g; Dv.ddr4_4g; Dv.ddr5_16g;
       Dv.ddr2_1g ~node:N.N65 (); Dv.ddr3_1g ~node:N.N55 ();
       Config.commodity ~name:"open" ~style:G.Open ~node:N.N55 ();
       Config.commodity ~name:"folded" ~style:G.Folded ~node:N.N55 () ])

let read_sets cfg = Read_set.trace ~page:(Config.activated_bits cfg) cfg

let reaching sets moved =
  List.filter
    (fun g -> sets.(Contribution.group_index g) land moved <> 0)
    Contribution.groups

(* The content-addressing contract: for EVERY lens, at a random scale
   on every device scaled at random, the spliced extraction must equal
   the full re-extraction bit for bit (record and report alike), the
   groups the splice dirtied must be exactly those whose traced read
   set holds a field the lens moved, and within the lens's declared
   [Lenses.dirties]. *)
let delta_matches_full =
  QCheck.Test.make
    ~name:"extract_delta: bit-identical to full for every lens" ~count:8
    QCheck.(pair (float_range 0.85 1.2) (float_range 0.7 1.3))
    (fun (base_factor, scale) ->
      List.for_all
        (fun device ->
          let cfg = scale_bitline device base_factor in
          let base_ex = Model.extract cfg in
          let sets = read_sets cfg in
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
              && outcome.Model.dirtied
                 = reaching sets (Read_set.changed cfg cfg')
              && List.for_all
                   (fun g -> List.mem g lens.Lenses.dirties)
                   outcome.Model.dirtied)
            Lenses.all)
        (Lazy.force delta_devices))

(* Each group's chunks, per operation kind, as energy lists. *)
let group_energies cfg g =
  List.concat_map
    (fun kind ->
      List.filter_map
        (fun (g', chunk) ->
          if g' = g then
            Some (List.map (fun (c : Contribution.t) -> c.Contribution.energy) (chunk ()))
          else None)
        (Vdram_core.Operation.segments cfg kind))
    Vdram_core.Operation.all

let delta_group_keys () =
  (* Scaling the bitline capacitance reaches the wordline (coupling)
     and sense-amplifier (swing) charge models and nothing else: their
     traced read sets hold the field and their chunks move, the other
     four hold bit-still and are spliced.  [bits_per_csl], the one
     integer field, reaches the column path alone. *)
  let cfg = base () in
  let sets = read_sets cfg in
  let ex = Model.extract cfg in
  let tech = cfg.Config.tech in
  List.iter
    (fun (what, cfg', bit, reached) ->
      let moved = Read_set.changed cfg cfg' in
      Alcotest.(check int) (what ^ ": one field moved") (1 lsl bit) moved;
      Helpers.check_true (what ^ ": traced groups") (reaching sets moved = reached);
      let _, outcome = Model.extract_delta ~base:ex cfg' in
      Helpers.check_true (what ^ ": dirtied") (outcome.Model.dirtied = reached);
      List.iter
        (fun g ->
          let name = what ^ ", " ^ Contribution.group_name g in
          let stable = group_energies cfg g = group_energies cfg' g in
          if List.mem g reached then
            Helpers.check_true (name ^ " chunks moved") (not stable)
          else Helpers.check_true (name ^ " chunks stable") stable)
        Contribution.groups)
    [ ("bitline capacitance", scale_bitline cfg 1.1, 9,
       [ Contribution.Wordline; Contribution.Sense_amp ]);
      ("bits per CSL",
       Config.with_tech cfg { tech with Params.bits_per_csl = 2 * tech.Params.bits_per_csl },
       38, [ Contribution.Column ]) ]

(* The NaN-poison oracle: float arithmetic spreads a NaN exactly as the
   read-set compilation spreads a field's bit, so setting one traced
   field to NaN must poison exactly the groups whose traced set holds
   it.  The poisoners cover every float field a charge model may read,
   and fields none reads (the receiver bias), which must poison
   nothing; the one integer field ([bits_per_csl], bit 38) is left to
   the test above. *)
let read_set_nan_oracle () =
  let module LB = Vdram_circuits.Logic_block in
  let logic name f = (name, fun c -> Config.map_logic c f) in
  let poisoners =
    List.map
      (fun (name, _, set) ->
        (name, fun c -> Config.with_tech c (set c.Config.tech Float.nan)))
      Params.fields
    @ List.map
        (fun (l : Lenses.t) -> (l.Lenses.name, fun c -> l.Lenses.set c Float.nan))
        (Lenses.voltages @ Lenses.interface)
    @ [ logic "gates" (fun b -> { b with LB.gates = Float.nan });
        logic "w_nmos" (fun b -> { b with LB.w_nmos = Float.nan });
        logic "w_pmos" (fun b -> { b with LB.w_pmos = Float.nan });
        logic "transistors" (fun b -> { b with LB.transistors_per_gate = Float.nan });
        logic "layout" (fun b -> { b with LB.layout_density = Float.nan });
        logic "wiring" (fun b -> { b with LB.wiring_density = Float.nan });
        logic "toggle" (fun b -> { b with LB.toggle = Float.nan }) ]
  in
  let checks = ref 0 in
  List.iter
    (fun device ->
      let sets = read_sets device in
      let covered =
        List.fold_left
          (fun acc (name, poison) ->
            let cfg = poison device in
            let moved = Read_set.changed device cfg in
            let what = device.Config.name ^ ", " ^ name in
            Helpers.check_true (what ^ ": at most one field")
              (moved land (moved - 1) = 0);
            if reaching sets moved <> [] then incr checks;
            List.iter
              (fun g ->
                let poisoned =
                  List.exists (List.exists Float.is_nan) (group_energies cfg g)
                in
                if poisoned <> List.mem g (reaching sets moved) then
                  Alcotest.failf "%s: %s %s NaN, its read set %s the field" what
                    (Contribution.group_name g)
                    (if poisoned then "turns" else "stays clear of")
                    (if poisoned then "lacks" else "holds"))
              Contribution.groups;
            acc lor moved)
          (1 lsl 38) poisoners
      in
      let traced = Array.fold_left ( lor ) 0 sets in
      Alcotest.(check int) (device.Config.name ^ ": every traced field poisoned")
        traced (traced land covered))
    (Lazy.force delta_devices);
  Helpers.check_true "hundreds of traced fields checked" (!checks > 400)

(* A reader maps its selector's value back to a field's bit, and
   refuses every value a selector computes instead of reading one
   field, so such a selector cannot hide a read from the trace. *)
let trace_codes_refuse_computed () =
  let module T = Vdram_core.Trace_num in
  Alcotest.(check int) "a code is its field's bit" (1 lsl 9) (T.bit (T.code 9));
  Alcotest.(check int) "an int field holds its code" (1 lsl 38)
    (T.bit (float_of_int (Float.to_int (T.code 38))));
  List.iter
    (fun (what, v) ->
      match T.bit v with
      | _ -> Alcotest.failf "%s decoded to a field" what
      | exception Invalid_argument _ -> ())
    [ ("a sum", T.code 3 +. T.code 4); ("a difference", T.code 4 -. T.code 3);
      ("a product", T.code 3 *. T.code 4); ("a ratio", T.code 4 /. T.code 3);
      ("a shifted code", T.code 3 +. 1.0); ("a halved code", T.code 8 /. 2.0);
      ("a physical value", 1.5); ("NaN", Float.nan); ("past the last bit", T.code 63) ]

(* [Lenses.dirties] declares, per lens, the groups the lens can reach;
   it must be the union over the devices of the groups whose traced
   read set holds a field the lens moves. *)
let lens_dirties_traced () =
  let devices = List.map (fun d -> (d, read_sets d)) (Lazy.force delta_devices) in
  List.iter
    (fun (lens : Lenses.t) ->
      let union =
        List.filter
          (fun g ->
            List.exists
              (fun (d, sets) ->
                List.mem g (reaching sets (Read_set.changed d (Lenses.scale lens Float.nan d))))
              devices)
          Contribution.groups
      in
      Helpers.check_true (lens.Lenses.name ^ ": dirties = traced union")
        (union = lens.Lenses.dirties))
    Lenses.all

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
  (* Version skew discards a snapshot instead of serving it: a good
     snapshot read under another version, and a snapshot stamped by the
     previous fingerprint scheme (fp1 keys digest the whole record, so
     they mean nothing under fp2) read under this one. *)
  Engine.flush_store engine;
  let fp1 = Store.open_ ~dir:store_dir ~version:(Model.version ^ "+fp1") () in
  Store.save fp1 ~name:"extraction" [||];
  List.iter
    (fun (label, reader, name) ->
      Helpers.check_true ("version skew discards " ^ label)
        (match Store.read reader ~name with
         | Store.Corrupt _ -> true
         | Store.Hit _ | Store.Missing -> false))
    [ ( "a good snapshot",
        Store.open_ ~dir:store_dir ~version:"some-other-version" (),
        "mix" );
      ("an fp1 snapshot", st, "extraction") ];
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

(* ----- admission ------------------------------------------------------ *)

(* An engine with a store keeps every miss, since the store's reader is
   a later process.  A storeless engine keeps a value on its key's
   second miss.  Serve's repeated corners request shows what that
   means: runs 1 and 2 miss every draw, run 3 hits every one, and all
   three return the same distribution. *)
let admission_policy () =
  let module Store = Vdram_engine.Store in
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "vdram-test-admit" in
  let st = Engine.store_open ~dir () in
  Store.clear st;
  let stored = Engine.create ~jobs:1 ~store:st () in
  ignore (Engine.eval stored cfg p : Report.t);
  ignore (Engine.eval stored cfg p : Report.t);
  let s = (Engine.stats stored).Engine.mix_stats in
  Alcotest.(check (pair int int))
    "store-backed: the first miss is kept, the second eval hits" (1, 1)
    (s.Engine.hits, s.Engine.misses);
  Store.clear st;
  let engine = Engine.create ~jobs:2 () in
  let samples = 40 in
  let run () =
    let before = (Engine.stats engine).Engine.mix_stats in
    let d =
      Corners.run ~engine ~samples ~seed:3
        ~pattern:(Pattern.idd7_mixed cfg.Config.spec) cfg
    in
    let after = (Engine.stats engine).Engine.mix_stats in
    (d, (after.Engine.hits - before.Engine.hits,
         after.Engine.misses - before.Engine.misses))
  in
  let d1, c1 = run () in
  let d2, c2 = run () in
  let d3, c3 = run () in
  (* Each run evaluates the seed configuration too. *)
  let n = samples + 1 in
  Alcotest.(check (list (pair int int))) "storeless: mix (hits, misses) per run"
    [ (0, n); (0, n); (n, 0) ] [ c1; c2; c3 ];
  Helpers.check_true "three runs, one distribution" (d1 = d2 && d2 = d3)

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
    Alcotest.test_case "pool run: two jobs at once, off caller" `Quick
      run_at_once;
    Alcotest.test_case "pool run: a job never queues behind busy domains"
      `Quick run_never_queues;
    Alcotest.test_case "pool run: messages are handled on the caller" `Quick
      run_posts_on_caller;
    Alcotest.test_case "pool run: a job's exception re-raises" `Quick
      run_reraises;
    Alcotest.test_case "pool run: overlapping jobs' maps stay within jobs"
      `Quick run_maps_within_jobs;
    Alcotest.test_case "pool run: a lone job's map borrows a domain" `Quick
      run_map_borrows;
    Alcotest.test_case "eval matches Model.pattern_power" `Quick
      eval_matches_model;
    Alcotest.test_case "renamed twin hits the mix cache" `Quick
      renamed_twin_hits_cache;
    Alcotest.test_case "stage cache counters" `Quick cache_counters;
    Alcotest.test_case "tech perturbation keeps geometry cached" `Quick
      upstream_invalidation;
    Alcotest.test_case "admission: a store keeps the first miss, else the second"
      `Quick admission_policy;
    Helpers.qcheck eval_determinism;
    Helpers.qcheck map_jobs_determinism;
    Helpers.qcheck fingerprint_faithful;
    Helpers.qcheck delta_matches_full;
    Alcotest.test_case "delta: group sub-keys move only when dirtied" `Quick
      delta_group_keys;
    Alcotest.test_case "delta: NaN poisons exactly the traced groups" `Quick
      read_set_nan_oracle;
    Alcotest.test_case "delta: lens dirties are the traced union" `Quick
      lens_dirties_traced;
    Alcotest.test_case "delta: a computed read is refused" `Quick
      trace_codes_refuse_computed;
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
