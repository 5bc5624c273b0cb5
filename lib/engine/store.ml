(* Persistent cross-process cache: versioned, checksummed marshal
   snapshots under _build/.vdram-cache (or $VDRAM_CACHE_DIR), with
   retry-with-backoff around the I/O, a quarantine directory for files
   that fail verification, and an optional size cap enforced by
   oldest-first eviction. *)

type io_stats = {
  retries : int;
  discarded : int;
  quarantined : int;
  quarantined_bytes : int;
  evicted : int;
}

type t = {
  dir : string;
  version : string;
  max_bytes : int option;
  quarantine_max_bytes : int option;
  c_retries : int Atomic.t;
  c_discarded : int Atomic.t;
  c_quarantined : int Atomic.t;
  c_quarantined_bytes : int Atomic.t;
  c_evicted : int Atomic.t;
}

let magic = "vdram-store 1"

let default_dir () =
  match Sys.getenv_opt "VDRAM_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> Filename.concat "_build" ".vdram-cache"

(* A byte cap from the environment.  A malformed or negative value
   counts as unset, as a garbage VDRAM_JOBS does in [Pool]: a negative
   cap would make every save delete every other file. *)
let env_bytes var =
  match Sys.getenv_opt var with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> Some n
    | _ -> None)
  | None -> None

let default_max_bytes () = env_bytes "VDRAM_CACHE_MAX_BYTES"

(* The quarantine directory is capped by default: its whole purpose is
   to keep evidence, and evidence of a corrupt-heavy run (every failed
   read moves another specimen aside) must not grow without bound on a
   long-lived daemon.  32 MiB keeps plenty of specimens. *)
let default_quarantine_max_bytes () =
  match env_bytes "VDRAM_QUARANTINE_MAX_BYTES" with
  | Some _ as cap -> cap
  | None -> Some (32 * 1024 * 1024)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let open_ ?dir ?max_bytes ?quarantine_max_bytes ~version () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  let max_bytes =
    match max_bytes with Some _ as m -> m | None -> default_max_bytes ()
  in
  let quarantine_max_bytes =
    match quarantine_max_bytes with
    | Some _ as m -> m
    | None -> default_quarantine_max_bytes ()
  in
  {
    dir;
    version;
    max_bytes;
    quarantine_max_bytes;
    c_retries = Atomic.make 0;
    c_discarded = Atomic.make 0;
    c_quarantined = Atomic.make 0;
    c_quarantined_bytes = Atomic.make 0;
    c_evicted = Atomic.make 0;
  }

let dir t = t.dir
let version t = t.version
let max_bytes t = t.max_bytes
let quarantine_max_bytes t = t.quarantine_max_bytes

let path t name = Filename.concat t.dir (name ^ ".cache")
let quarantine_dir t = Filename.concat t.dir "quarantine"

let stats t =
  {
    retries = Atomic.get t.c_retries;
    discarded = Atomic.get t.c_discarded;
    quarantined = Atomic.get t.c_quarantined;
    quarantined_bytes = Atomic.get t.c_quarantined_bytes;
    evicted = Atomic.get t.c_evicted;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d retries, %d discarded, %d quarantined (%d bytes), %d evicted"
    s.retries s.discarded s.quarantined s.quarantined_bytes s.evicted

(* ----- quarantine ---------------------------------------------------- *)

(* A rejected snapshot is moved aside, never deleted and never left in
   place: deleting destroys the evidence, leaving it means every
   subsequent run re-reads (and re-rejects) the same bad bytes.  The
   destination name is made unique so repeated corruption of one stage
   keeps every specimen, and a .reason sidecar records why.  The
   directory itself is size-capped ([quarantine_max_bytes]): after
   every move the oldest specimens (and their sidecars) are dropped
   until the evidence fits, so a corrupt-heavy run keeps the freshest
   specimens instead of growing without bound. *)

let file_size p =
  match Unix.stat p with
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ | (exception Unix.Unix_error _) -> 0

(* Specimens in the quarantine directory, oldest first (mtime, then
   name — deterministic on coarse-mtime filesystems), each with the
   combined size of the .cache file and its .reason sidecar. *)
let quarantine_specimens t =
  let qdir = quarantine_dir t in
  if Sys.file_exists qdir && Sys.is_directory qdir then
    Array.to_list (Sys.readdir qdir)
    |> List.filter_map (fun f ->
           if not (Filename.check_suffix f ".cache") then None
           else
             let p = Filename.concat qdir f in
             match Unix.stat p with
             | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
               Some (p, st_size + file_size (p ^ ".reason"), st_mtime)
             | _ | (exception Unix.Unix_error _) -> None)
    |> List.sort (fun (p1, _, m1) (p2, _, m2) ->
           match Float.compare m1 m2 with 0 -> compare p1 p2 | c -> c)
  else []

let evict_quarantine ?keep t =
  match t.quarantine_max_bytes with
  | None -> 0
  | Some cap ->
    let specimens = quarantine_specimens t in
    let total = List.fold_left (fun a (_, sz, _) -> a + sz) 0 specimens in
    let victims =
      List.filter (fun (p, _, _) -> Some p <> keep) specimens
    in
    let rec go total removed = function
      | [] -> removed
      | _ when total <= cap -> removed
      | (p, sz, _) :: rest ->
        (match Sys.remove p with
         | () ->
           (try Sys.remove (p ^ ".reason") with Sys_error _ -> ());
           Atomic.incr t.c_evicted;
           go (total - sz) (removed + 1) rest
         | exception Sys_error _ -> go total removed rest)
    in
    go total 0 victims

let quarantine t ~name ~reason =
  let src = path t name in
  if not (Sys.file_exists src) then false
  else begin
    mkdir_p (quarantine_dir t);
    let rec dest k =
      let file =
        if k = 0 then name ^ ".cache"
        else Printf.sprintf "%s.%d.cache" name k
      in
      let d = Filename.concat (quarantine_dir t) file in
      if Sys.file_exists d then dest (k + 1) else d
    in
    let d = dest 0 in
    let moved = file_size src in
    match Sys.rename src d with
    | () ->
      (try
         Out_channel.with_open_text (d ^ ".reason") (fun oc ->
             Out_channel.output_string oc (reason ^ "\n"))
       with Sys_error _ -> ());
      Atomic.incr t.c_quarantined;
      ignore (Atomic.fetch_and_add t.c_quarantined_bytes moved : int);
      ignore (evict_quarantine ~keep:d t : int);
      true
    | exception Sys_error _ -> false
  end

(* ----- eviction ------------------------------------------------------ *)

(* One snapshot file per stage:

     vdram-store 1\n
     <version stamp>\n
     <md5 hex of payload>\n
     <marshalled payload>

   The checksum is verified before unmarshalling — [Marshal] offers no
   safety against corrupt input, so a truncated or bit-flipped file
   must never reach it.  Writes go to a temporary file in the same
   directory, fsync'd and renamed into place, so concurrent processes
   see either the old snapshot or the new one, never a torn write —
   and the writer pays for its own writeback instead of leaking dirty
   pages into whatever runs next. *)

let snapshot_files t =
  if Sys.file_exists t.dir && Sys.is_directory t.dir then
    Array.to_list (Sys.readdir t.dir)
    |> List.filter_map (fun f ->
           if not (Filename.check_suffix f ".cache") then None
           else
             let p = Filename.concat t.dir f in
             match Unix.stat p with
             | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
               Some (p, st_size, st_mtime)
             | _ | (exception Unix.Unix_error _) -> None)
  else []

let evict ?keep t =
  match t.max_bytes with
  | None -> 0
  | Some cap ->
    let keep_path = Option.map (path t) keep in
    let files = snapshot_files t in
    let total = List.fold_left (fun a (_, sz, _) -> a + sz) 0 files in
    (* Oldest first; ties broken by name so eviction order is
       deterministic on coarse-mtime filesystems. *)
    let victims =
      List.sort
        (fun (p1, _, m1) (p2, _, m2) ->
          match Float.compare m1 m2 with 0 -> compare p1 p2 | c -> c)
        files
      |> List.filter (fun (p, _, _) -> Some p <> keep_path)
    in
    let rec go total removed = function
      | [] -> removed
      | _ when total <= cap -> removed
      | (p, sz, _) :: rest ->
        (match Sys.remove p with
         | () ->
           Atomic.incr t.c_evicted;
           go (total - sz) (removed + 1) rest
         | exception Sys_error _ -> go total removed rest)
    in
    go total 0 victims

(* ----- save ---------------------------------------------------------- *)

let with_backoff ~retries ~backoff t body =
  let rec attempt k =
    match body () with
    | Ok v -> Some v
    | Error _ when k < retries ->
      Atomic.incr t.c_retries;
      Unix.sleepf (backoff *. float_of_int (1 lsl k));
      attempt (k + 1)
    | Error _ -> None
  in
  attempt 0

let save ?(retries = 2) ?(backoff = 0.005) t ~name v =
  mkdir_p t.dir;
  (* Sharing is preserved (unlike fingerprinting, which needs canonical
     bytes): delta-extraction splices clean per-operation segments from
     the base extraction, and perturbed configurations share every
     untouched substructure, so a snapshot of a sweep's cache entries is
     a dense DAG.  Flattening it with [No_sharing] multiplies both the
     file size and the warm-start unmarshal time by the sweep width. *)
  let payload = Marshal.to_string v [] in
  let write () =
    match Filename.temp_file ~temp_dir:t.dir ("." ^ name) ".tmp" with
    | exception Sys_error e -> Error e
    | tmp ->
      (match
         Out_channel.with_open_bin tmp (fun oc ->
             Out_channel.output_string oc magic;
             Out_channel.output_char oc '\n';
             Out_channel.output_string oc t.version;
             Out_channel.output_char oc '\n';
             Out_channel.output_string oc
               (Digest.to_hex (Digest.string payload));
             Out_channel.output_char oc '\n';
             Out_channel.output_string oc payload;
             Out_channel.flush oc;
             try Unix.fsync (Unix.descr_of_out_channel oc)
             with Unix.Unix_error _ -> ())
       with
       | () ->
         (match Sys.rename tmp (path t name) with
          | () -> Ok ()
          | exception Sys_error e ->
            (try Sys.remove tmp with Sys_error _ -> ());
            Error e)
       | exception Sys_error e ->
         (try Sys.remove tmp with Sys_error _ -> ());
         Error e)
  in
  match with_backoff ~retries ~backoff t write with
  | Some () -> ignore (evict ~keep:name t)
  | None -> ()

(* ----- read ---------------------------------------------------------- *)

type 'a read = Hit of 'a | Missing | Corrupt of string

(* Split off exactly three header lines and verify each before the
   payload reaches [Marshal]. *)
let decode t contents =
  let line from =
    match String.index_from_opt contents from '\n' with
    | None -> None
    | Some i -> Some (String.sub contents from (i - from), i + 1)
  in
  match line 0 with
  | Some (m, p1) when m = magic ->
    (match line p1 with
     | Some (v, p2) when v = t.version ->
       (match line p2 with
        | Some (checksum, p3) ->
          let payload =
            String.sub contents p3 (String.length contents - p3)
          in
          if Digest.to_hex (Digest.string payload) <> checksum then
            Error "checksum mismatch"
          else
            (try Ok (Marshal.from_string payload 0)
             with _ -> Error "undecodable payload")
        | _ -> Error "truncated header")
     | Some (v, _) ->
       Error
         (Printf.sprintf "version skew (snapshot %S, expected %S)" v
            t.version)
     | None -> Error "truncated header")
  | Some _ -> Error "bad magic"
  | None -> Error "empty file"

let read ?(retries = 2) ?(backoff = 0.005) t ~name =
  let file = path t name in
  let attempt_once () =
    if not (Sys.file_exists file) then Ok `Missing
    else
      match In_channel.with_open_bin file In_channel.input_all with
      | exception Sys_error e -> Error ("io error: " ^ e)
      | contents ->
        if Faults.corrupt_read ~name then
          Error "fault-injected corruption (VDRAM_FAULTS corrupt=store)"
        else (
          match decode t contents with
          | Ok v -> Ok (`Hit v)
          | Error reason -> Error reason)
  in
  (* A checksum mismatch can be a concurrent writer caught mid-flight
     on a filesystem without atomic rename, and an io error can be
     transient — both are worth a couple of backed-off retries before
     the file is condemned. *)
  let rec attempt k =
    match attempt_once () with
    | Ok r -> Ok r
    | Error _ when k < retries ->
      Atomic.incr t.c_retries;
      Unix.sleepf (backoff *. float_of_int (1 lsl k));
      attempt (k + 1)
    | Error reason -> Error reason
  in
  match attempt 0 with
  | Ok `Missing -> Missing
  | Ok (`Hit v) -> Hit v
  | Error reason ->
    Atomic.incr t.c_discarded;
    ignore (quarantine t ~name ~reason);
    Corrupt reason

let load t ~name =
  match read t ~name with Hit v -> Some v | Missing | Corrupt _ -> None

let clear t =
  let sweep dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      Array.iter
        (fun f ->
          if
            Filename.check_suffix f ".cache"
            || Filename.check_suffix f ".reason"
          then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir)
  in
  sweep t.dir;
  sweep (quarantine_dir t)
