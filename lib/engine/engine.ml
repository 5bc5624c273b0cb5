(* Staged evaluation: fingerprint-keyed sharded stage caches + a
   chunked domain pool + an optional persistent store. *)

module Config = Vdram_core.Config
module Model = Vdram_core.Model
module Operation = Vdram_core.Operation
module Pattern = Vdram_core.Pattern
module Report = Vdram_core.Report
module Floorplan = Vdram_floorplan.Floorplan
module C = Vdram_circuits.Contribution
module Fp = Fingerprint
module Fp_tbl = Hashtbl.Make (Fingerprint)

type geometry = {
  geometry : Vdram_floorplan.Array_geometry.t;
  page_bits : int;
  activated_bits : int;
  die_area : float;
  array_efficiency : float;
}

(* ----- sharded caches ---------------------------------------------- *)

(* Each stage cache is striped over [nshards] independently locked
   hash tables; the shard is picked from the key's fingerprint, so two
   domains evaluating different configurations almost never contend on
   the same mutex.  Critical sections are a single find or replace —
   stage computation always happens outside any lock (stages are pure,
   so a rare duplicate computation is just the same value computed
   twice, and last-write-wins stores the same bits). *)

let nshards = 16 (* power of two: shard index is a fingerprint mask *)

type 'v shard = { lock : Mutex.t; tbl : 'v Fp_tbl.t }
type 'v cache = 'v shard array

let cache_create () : 'v cache =
  Array.init nshards (fun _ ->
      { lock = Mutex.create (); tbl = Fp_tbl.create 64 })

let shard_of (cache : 'v cache) fp = cache.(Fp.hash fp land (nshards - 1))

let cache_entries (cache : 'v cache) =
  Array.to_list cache
  |> List.concat_map (fun s ->
         Mutex.lock s.lock;
         let xs = Fp_tbl.fold (fun k v acc -> (k, v) :: acc) s.tbl [] in
         Mutex.unlock s.lock;
         xs)

(* Per-stage counters; atomics because the pool's worker domains share
   the engine. *)
type counters = {
  hits : int Atomic.t;
  misses : int Atomic.t;
  time_ns : int Atomic.t;
}

let counters () =
  { hits = Atomic.make 0; misses = Atomic.make 0; time_ns = Atomic.make 0 }

(* Delta-extraction counters: misses extracted against a base,
   full-extract fallbacks (structural splice mismatch), spliced clean
   groups, and per-group dirty counts indexed by [C.group_index]. *)
type delta_counters = {
  attempts : int Atomic.t;
  fallbacks : int Atomic.t;
  spliced : int Atomic.t;
  dirtied : int Atomic.t array;
}

let delta_counters () =
  {
    attempts = Atomic.make 0;
    fallbacks = Atomic.make 0;
    spliced = Atomic.make 0;
    dirtied = Array.init C.group_count (fun _ -> Atomic.make 0);
  }

type t = {
  jobs : int;
  delta : bool;
  geom_cache : geometry cache;
  ext_cache : Model.extraction cache;
  mix_cache : Report.t cache;
  geom_c : counters;
  ext_c : counters;
  mix_c : counters;
  delta_c : delta_counters;
  store : Store.t option;
  preloaded : int * int;
  discarded : int;
  (* Miss counts at the last flush, per persistent stage: a flush only
     writes a stage that has missed since the previous one, so a
     long-lived engine (the serve daemon) can call [flush_store] after
     every request and pay nothing when the caches are clean. *)
  flushed_ext : int Atomic.t;
  flushed_mix : int Atomic.t;
}

exception Stage_error of string * exn

let () =
  Printexc.register_printer (function
    | Stage_error (stage, inner) ->
      Some
        (Printf.sprintf "Vdram_engine.Engine.Stage_error(%s: %s)" stage
           (Printexc.to_string inner))
    | _ -> None)

(* ----- persistent store -------------------------------------------- *)

(* The store stamp ties a snapshot to both the physics and the
   fingerprint scheme: results computed by an older model, or keyed by
   an older scheme, are discarded on load. *)
let store_version = Model.version ^ "+" ^ Fp.scheme_version

let store_open ?dir ?max_bytes () =
  Store.open_ ?dir ?max_bytes ~version:store_version ()

(* Preload returns (entries, discarded): a Corrupt read counts as one
   discarded snapshot (the store has already quarantined the file) and
   the stage simply starts cold. *)
let preload (cache : 'v cache) (entries : (Fp.t * 'v) array Store.read) =
  match entries with
  | Store.Missing -> (0, 0)
  | Store.Corrupt _ -> (0, 1)
  | Store.Hit arr ->
    Array.iter
      (fun (fp, v) ->
        let s = shard_of cache fp in
        Fp_tbl.replace s.tbl fp v)
      arr;
    (Array.length arr, 0)

let create ?jobs ?store ?(delta = true) () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  let geom_cache = cache_create () in
  let ext_cache : Model.extraction cache = cache_create () in
  let mix_cache : Report.t cache = cache_create () in
  let preloaded, discarded =
    match store with
    | None -> ((0, 0), 0)
    | Some st ->
      let ext, dext =
        preload ext_cache
          (Store.read st ~name:"extraction"
            : (Fp.t * Model.extraction) array Store.read)
      in
      let mix, dmix =
        preload mix_cache
          (Store.read st ~name:"mix" : (Fp.t * Report.t) array Store.read)
      in
      ((ext, mix), dext + dmix)
  in
  {
    jobs;
    delta;
    geom_cache;
    ext_cache;
    mix_cache;
    geom_c = counters ();
    ext_c = counters ();
    mix_c = counters ();
    delta_c = delta_counters ();
    store;
    preloaded;
    discarded;
    flushed_ext = Atomic.make 0;
    flushed_mix = Atomic.make 0;
  }

let serial () = create ~jobs:1 ()
let jobs t = t.jobs
let store t = t.store
let preloaded t = t.preloaded
let discarded t = t.discarded

let store_dirty t =
  t.store <> None
  && (Atomic.get t.ext_c.misses > Atomic.get t.flushed_ext
      || Atomic.get t.mix_c.misses > Atomic.get t.flushed_mix)

let flush_store t =
  match t.store with
  | None -> ()
  | Some st ->
    (* Persist without witnesses: on disk the 128-bit digest is the
       identity (see Fingerprint.trusted), which keeps snapshots at a
       fraction of the in-memory footprint.  A stage that has not
       missed since the last flush holds nothing its snapshot lacks,
       so skip it — a fully warm run costs a load but no save, an idle
       engine never clobbers a good snapshot with an empty one, and a
       resident engine that flushes after every request only pays when
       something new was computed. *)
    let dump cache =
      Array.of_list
        (List.map (fun (fp, v) -> (Fp.trusted fp, v)) (cache_entries cache))
    in
    let ext_misses = Atomic.get t.ext_c.misses in
    if ext_misses > Atomic.get t.flushed_ext then begin
      Store.save st ~name:"extraction" (dump t.ext_cache);
      Atomic.set t.flushed_ext ext_misses
    end;
    let mix_misses = Atomic.get t.mix_c.misses in
    if mix_misses > Atomic.get t.flushed_mix then begin
      Store.save st ~name:"mix" (dump t.mix_cache);
      Atomic.set t.flushed_mix mix_misses
    end

(* ----- fingerprint keys -------------------------------------------- *)

(* Two domain-local memos keyed on physical identity remember the last
   value fingerprinted, so one marshal serves every lookup that arrives
   with the same immutable value in hand.  Each stays because removing
   it cost an end-to-end number on the benchmark ledger (doc/ENGINE.md,
   "Earn-its-keep audit").

   Configurations: serve's [Render.power] evaluates one configuration
   against six patterns and then the request's own, and a mix miss
   looks the same configuration up again for extraction.  Without the
   memo every eval marshals the configuration again, and each mix key
   holds its own copy of the ~2.4 KB witness: serve_mixed's p50 latency
   rose 12% and its peak memory 20%. *)
let cfg_fp_memo : (Config.t * Fp.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Patterns: every item of a batch shares one pattern value, so this
   hits for every item after the first.  Without it (and Operation's
   logic-label memo) batch_corners lost 1.8% of its item throughput,
   in every measured pair. *)
let pat_fp_memo : (Pattern.t * Fp.t) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let config_fp (cfg : Config.t) =
  match Domain.DLS.get cfg_fp_memo with
  | Some (c, fp) when c == cfg -> fp
  | _ ->
    let fp = Fp.of_value (Model.physics_projection cfg) in
    Domain.DLS.set cfg_fp_memo (Some (cfg, fp));
    fp

let pattern_fp (p : Pattern.t) =
  match Domain.DLS.get pat_fp_memo with
  | Some (q, fp) when q == p -> fp
  | _ ->
    let fp = Fp.of_value p in
    Domain.DLS.set pat_fp_memo (Some (p, fp));
    fp

(* ----- stages ------------------------------------------------------ *)

(* Per-miss timing uses the monotonic clock: wall-clock deltas
   (gettimeofday) can go backwards under NTP adjustment and corrupt
   the accumulators with negative nanoseconds. *)
let cached cache c fp compute =
  let s = shard_of cache fp in
  Mutex.lock s.lock;
  let found = Fp_tbl.find_opt s.tbl fp in
  Mutex.unlock s.lock;
  match found with
  | Some v ->
    Atomic.incr c.hits;
    v
  | None ->
    let t0 = Monotonic_clock.now () in
    let v = compute () in
    let dt = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
    Atomic.incr c.misses;
    ignore (Atomic.fetch_and_add c.time_ns dt);
    Mutex.lock s.lock;
    Fp_tbl.replace s.tbl fp v;
    Mutex.unlock s.lock;
    v

(* Under a supervised item (Faults.with_item context), a stage failure
   is tagged with the stage it escaped from so the failure record can
   attribute it; the innermost stage wins (an inner Stage_error passes
   through unchanged).  Outside supervision exceptions propagate
   exactly as before — the unsupervised engine is byte-for-byte the
   old one. *)
let guard stage f =
  if not (Faults.supervised ()) then f ()
  else
    try f () with
    | (Faults.Injected _ | Stage_error _) as e -> raise e
    | e ->
      let bt = Printexc.get_raw_backtrace () in
      Printexc.raise_with_backtrace (Stage_error (stage, e)) bt

(* Fault hooks fire at stage {e entry}, before any cache lookup, so
   whether an item is faulted never depends on what happens to be
   cached.  The mix hook is exact (eval runs once per item); geometry
   and extraction hooks only fire when the mix stage actually recurses
   into them, i.e. on a mix-cache miss. *)

let geometry t (cfg : Config.t) =
  Faults.stage_hook Faults.Geometry;
  guard "geometry" (fun () ->
      let fp =
        Fp.of_value (cfg.Config.floorplan, cfg.Config.activation_fraction)
      in
      cached t.geom_cache t.geom_c fp (fun () ->
          {
            geometry = Config.geometry cfg;
            page_bits = Config.page_bits cfg;
            activated_bits = Config.activated_bits cfg;
            die_area = Floorplan.die_area cfg.Config.floorplan;
            array_efficiency = Floorplan.array_efficiency cfg.Config.floorplan;
          }))

let record_delta t (o : Model.delta_outcome) =
  Atomic.incr t.delta_c.attempts;
  if o.Model.fallback then Atomic.incr t.delta_c.fallbacks
  else begin
    ignore (Atomic.fetch_and_add t.delta_c.spliced o.Model.spliced);
    List.iter
      (fun g -> Atomic.incr t.delta_c.dirtied.(C.group_index g))
      o.Model.dirtied
  end

(* [base] is the extraction of a configuration the evaluated one is a
   small perturbation of (the nominal point of a sensitivity sweep, the
   seed of a corners draw): on a miss, the stage re-extracts only the
   circuit groups whose per-group sub-key differs from the base's and
   splices the rest.  Purely an access-path optimization — the spliced
   record is bit-identical to a full extraction, whatever device the
   base came from, so the cache content does not depend on how it was
   computed.  A [~delta:false] engine ignores [base]. *)
let extraction ?base t (cfg : Config.t) =
  Faults.stage_hook Faults.Extraction;
  guard "extraction" (fun () ->
      let fp = config_fp cfg in
      let s = shard_of t.ext_cache fp in
      Mutex.lock s.lock;
      let found = Fp_tbl.find_opt s.tbl fp in
      Mutex.unlock s.lock;
      match found with
      | Some v ->
        Atomic.incr t.ext_c.hits;
        v
      | None ->
        (* Geometry is its own stage with its own timer: resolve it
           before starting extraction's clock so the per-stage time
           attributions stay disjoint. *)
        let g = geometry t cfg in
        let t0 = Monotonic_clock.now () in
        let v, outcome =
          match base with
          | Some base when t.delta ->
            let ex, o =
              Model.extract_delta ~activated_bits:g.activated_bits
                ~geometry:g.geometry ~base cfg
            in
            (ex, Some o)
          | _ ->
            ( Model.extract ~activated_bits:g.activated_bits
                ~geometry:g.geometry cfg,
              None )
        in
        let dt = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
        Atomic.incr t.ext_c.misses;
        ignore (Atomic.fetch_and_add t.ext_c.time_ns dt);
        Option.iter (record_delta t) outcome;
        Mutex.lock s.lock;
        Fp_tbl.replace s.tbl fp v;
        Mutex.unlock s.lock;
        v)

let eval ?base t (cfg : Config.t) pattern =
  Faults.stage_hook Faults.Mix;
  guard "mix" (fun () ->
      let fp = Fp.combine [ config_fp cfg; pattern_fp pattern ] in
      let r =
        cached t.mix_cache t.mix_c fp (fun () ->
            let ex = extraction ?base t cfg in
            { (Model.pattern_power_staged ex cfg pattern) with
              Report.config_name = "" })
      in
      { r with Report.config_name = cfg.Config.name })

let power ?base t cfg pattern = (eval ?base t cfg pattern).Report.power
let current ?base t cfg pattern = (eval ?base t cfg pattern).Report.current

let energy_per_bit ?base t cfg pattern =
  (eval ?base t cfg pattern).Report.energy_per_bit

let op_energy ?base t cfg kind =
  Model.extraction_energy (extraction ?base t cfg) kind

let map_jobs t f xs = Pool.map ~jobs:t.jobs f xs

type stage_stats = { hits : int; misses : int; time_ns : int }

type delta_stats = {
  delta_attempts : int;
  delta_fallbacks : int;
  groups_spliced : int;
  groups_dirtied : (string * int) list;  (** group name, dirty count *)
}

type stats = {
  geometry_stats : stage_stats;
  extraction_stats : stage_stats;
  mix_stats : stage_stats;
  delta_stats : delta_stats;
}

let stage_stats (c : counters) =
  {
    hits = Atomic.get c.hits;
    misses = Atomic.get c.misses;
    time_ns = Atomic.get c.time_ns;
  }

let delta_stats (c : delta_counters) =
  {
    delta_attempts = Atomic.get c.attempts;
    delta_fallbacks = Atomic.get c.fallbacks;
    groups_spliced = Atomic.get c.spliced;
    groups_dirtied =
      List.map
        (fun g -> (C.group_name g, Atomic.get c.dirtied.(C.group_index g)))
        C.groups;
  }

let stats t =
  {
    geometry_stats = stage_stats t.geom_c;
    extraction_stats = stage_stats t.ext_c;
    mix_stats = stage_stats t.mix_c;
    delta_stats = delta_stats t.delta_c;
  }

let pp_stage ppf (name, s) =
  Format.fprintf ppf "%-10s %6d hit %6d miss  %8.3f ms" name s.hits s.misses
    (float_of_int s.time_ns /. 1e6)

let pp_delta ppf (d : delta_stats) =
  let total_dirtied =
    List.fold_left (fun acc (_, n) -> acc + n) 0 d.groups_dirtied
  in
  Format.fprintf ppf
    "%-10s %6d delta %5d full  %d dirtied / %d spliced groups" "extraction"
    d.delta_attempts d.delta_fallbacks total_dirtied d.groups_spliced;
  let nonzero = List.filter (fun (_, n) -> n > 0) d.groups_dirtied in
  if nonzero <> [] then begin
    Format.fprintf ppf "@,%-10s " "";
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
      (fun ppf (name, n) -> Format.fprintf ppf "%s %d" name n)
      ppf nonzero
  end

let pp_stats ppf s =
  Format.fprintf ppf "@[<v>%a@,%a@,%a" pp_stage
    ("geometry", s.geometry_stats)
    pp_stage
    ("extraction", s.extraction_stats)
    pp_stage ("mix", s.mix_stats);
  if s.delta_stats.delta_attempts > 0 then
    Format.fprintf ppf "@,%a" pp_delta s.delta_stats;
  Format.fprintf ppf "@]"
