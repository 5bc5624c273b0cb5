(* Every counter the ledger reports is read here, once, at the end of the
   phase that produced it: the engine's stage and delta counters, the
   serve daemon's [stats] payload, the store's files, the GC and the
   kernel's memory high-water marks.  When these counter sets are
   replaced by one instrumentation layer, this is the file to change. *)

module Engine = Vdram_engine.Engine
module Json = Vdram_serve.Json

type engine_totals = {
  mutable geom : int * int;  (** hits, misses *)
  mutable ext : int * int;
  mutable mix : int * int;
  mutable attempts : int;
  mutable fallbacks : int;
  mutable dirtied : int;
}

let engine_totals () =
  { geom = (0, 0); ext = (0, 0); mix = (0, 0); attempts = 0; fallbacks = 0; dirtied = 0 }

let add_pair (h, m) (s : Engine.stage_stats) = (h + s.Engine.hits, m + s.Engine.misses)

(* Fold one engine's counters into [t] (an engine per op is read as it
   is retired). *)
let add_engine t e =
  let s = Engine.stats e in
  t.geom <- add_pair t.geom s.Engine.geometry_stats;
  t.ext <- add_pair t.ext s.Engine.extraction_stats;
  t.mix <- add_pair t.mix s.Engine.mix_stats;
  let d = s.Engine.delta_stats in
  t.attempts <- t.attempts + d.Engine.delta_attempts;
  t.fallbacks <- t.fallbacks + d.Engine.delta_fallbacks;
  t.dirtied <-
    t.dirtied + List.fold_left (fun a (_, n) -> a + n) 0 d.Engine.groups_dirtied

let ratio (h, m) = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

let engine_metrics t =
  [
    ("engine.geometry.hit_ratio", ratio t.geom);
    ("engine.extraction.hit_ratio", ratio t.ext);
    ("engine.mix.hit_ratio", ratio t.mix);
    ("engine.delta.attempts", float_of_int t.attempts);
    ("engine.delta.fallbacks", float_of_int t.fallbacks);
    ( "engine.delta.dirtied_per_attempt",
      if t.attempts = 0 then 0.0 else float_of_int t.dirtied /. float_of_int t.attempts );
  ]

(* The daemon's [stats] frame.  It exposes stage hits and misses but no
   delta counters, so those stay at zero for a served workload. *)
let serve_metrics (frame : Json.t) =
  let path keys =
    List.fold_left (fun j k -> Option.bind j (Json.mem k)) (Json.mem "stats" frame) keys
  in
  let int keys = Option.value ~default:0 (Option.bind (path keys) Json.int_) in
  let pair stage = (int [ "engine"; stage; "hits" ], int [ "engine"; stage; "misses" ]) in
  let t = engine_totals () in
  t.geom <- pair "geometry";
  t.ext <- pair "extraction";
  t.mix <- pair "mix";
  ( engine_metrics t,
    [
      ("serve.coalesced_shared", float_of_int (int [ "requests"; "coalesced_shared" ]));
      ("serve.overloaded", float_of_int (int [ "requests"; "overloaded" ]));
      ("serve.bad_frames", float_of_int (int [ "requests"; "bad_frames" ]));
    ] )

let store_bytes dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
    Array.fold_left
      (fun a n ->
        match Unix.stat (Filename.concat dir n) with
        | { Unix.st_kind = Unix.S_REG; st_size; _ } -> a + st_size
        | _ -> a
        | exception Unix.Unix_error _ -> a)
      0 names

type gc_mark = { minor_words : float; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major = s.Gc.major_collections }

let gc_metrics ~since ~items =
  let now = gc_mark () in
  [
    ( "gc.minor_words_per_item",
      (now.minor_words -. since.minor_words) /. float_of_int (max 1 items) );
    ("gc.major_collections", float_of_int (now.major - since.major));
  ]

let self_peak_mb () = Proc.vm_hwm_mb "self"
let daemon_peak_mb pid = Proc.vm_hwm_mb (string_of_int pid)
let children_peak_mb () = float_of_int (Proc.children_maxrss_kb ()) /. 1024.0
