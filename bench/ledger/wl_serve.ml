(* serve_mixed: the vdram serve daemon over a Unix socket, driven by one
   thread on two connections.  Phase 1 is a closed loop (each connection
   has one request outstanding); phase 2 is an open loop at R requests
   per second, pipelined, each request timed from its due time.  The
   mix is 70% eval (a quarter with inline source), 15% sensitivity, 10%
   sweep, 4% corners and 1% stats; a tenth of the ops go out on both
   connections at once so the daemon can coalesce them.  This is how
   tools integrate vdram: per-request cost on a warm engine, plus the
   queueing an open loop exposes. *)

open Common
module Json = Vdram_serve.Json
module Protocol = Vdram_serve.Protocol
module Render = Vdram_serve.Render
module Model = Vdram_core.Model
module Pattern = Vdram_core.Pattern
module Config = Vdram_core.Config
module Lenses = Vdram_analysis.Lenses
module Node = Vdram_tech.Node
module Roadmap = Vdram_tech.Roadmap

type key = { idx : int; kind : string; body : (string * Json.t) list; items : int }

let factors = List.init 9 (fun i -> 0.8 +. (0.05 *. float_of_int i))

let line id k = Json.to_string (Json.Obj (("id", Json.Num (float_of_int id)) :: k.body))

(* A commodity device by its CLI knobs, redrawn until the daemon's own
   resolution accepts it. *)
let rec knobs r =
  let node = Gen.pick r (Array.of_list Node.all) in
  let g = Roadmap.generation node in
  let spec =
    [
      ("node", Json.Str (Node.name node));
      ("density_mbits", Json.Num (g.Roadmap.density_bits /. 1048576.0 *. Gen.pick r [| 0.5; 1.0; 2.0 |]));
      ("io_width", Json.Num (float_of_int (Gen.pick r [| 4; 8; 16 |])));
      ("datarate", Json.Str (Printf.sprintf "%gMbps" (g.Roadmap.datarate /. 1e6)));
    ]
  in
  let req = Json.Obj [ ("op", Json.Str "eval"); ("config", Json.Obj spec) ] in
  match Protocol.decode req with
  | Ok { Protocol.kind = Protocol.Eval { spec = s; _ }; _ } -> (
    match Protocol.resolve_config s with
    | Ok (cfg, _) -> (Json.Obj spec, cfg)
    | Error _ | (exception Invalid_argument _) -> knobs r)
  | _ -> knobs r

let pattern_field r cfg =
  ("pattern", Json.Str (Pattern.to_string (Gen.pattern_of (Gen.pick r Gen.pattern_names) cfg)))

let sens_items = (2 * (List.length Lenses.all - 1)) + 1

(* The key pool, split by kind; ops draw a kind by exact proportion and
   a key of that kind by Zipf(1.0). *)
let pools env (devices : Gen.device array) =
  let r = Gen.stream env.seed "serve/keys" in
  let n = size env ~full:400 ~quick:100 in
  let count share = max 1 (n * share / 100) in
  let eval i =
    if i mod 4 = 0 then
      let d = Gen.pick r devices in
      { idx = 0; kind = "eval"; body = [ ("op", Json.Str "eval"); ("config", Json.Obj [ ("source", Json.Str d.Gen.source) ]) ]; items = 1 }
    else
      let spec, cfg = knobs r in
      { idx = 0; kind = "eval"; body = [ ("op", Json.Str "eval"); ("config", spec); pattern_field r cfg ]; items = 1 }
  in
  let sens _ =
    let spec, cfg = knobs r in
    {
      idx = 0;
      kind = "sensitivity";
      body =
        [ ("op", Json.Str "sensitivity"); ("config", spec); pattern_field r cfg;
          ("variation", Json.Num (Gen.pick r [| 0.05; 0.10; 0.20 |])) ];
      items = sens_items;
    }
  in
  let sweep _ =
    let spec, cfg = knobs r in
    {
      idx = 0;
      kind = "sweep";
      body =
        [ ("op", Json.Str "sweep"); ("config", spec); pattern_field r cfg;
          ("lens", Json.Str (Gen.pick r (Array.of_list Lenses.all)).Lenses.name);
          ("factors", Json.List (List.map (fun f -> Json.Num f) factors)) ];
      items = List.length factors;
    }
  in
  let samples = size env ~full:200 ~quick:20 in
  let corners _ =
    let spec, cfg = knobs r in
    {
      idx = 0;
      kind = "corners";
      body =
        [ ("op", Json.Str "corners"); ("config", spec); pattern_field r cfg;
          ("samples", Json.Num (float_of_int samples));
          ("spread", Json.Num (Gen.pick r [| 0.05; 0.10; 0.15 |])) ];
      items = samples;
    }
  in
  let stats = { idx = 0; kind = "stats"; body = [ ("op", Json.Str "stats") ]; items = 0 } in
  let next = ref 0 in
  let number k =
    incr next;
    { k with idx = !next }
  in
  Array.map
    (fun (share, keys) -> (share, Array.map number keys))
    [|
      (70, Array.init (count 70) eval);
      (15, Array.init (count 15) sens);
      (10, Array.init (count 10) sweep);
      (4, Array.init (count 4) corners);
      (1, [| stats |]);
    |]

(* The op stream of one phase: every block of 100 ops holds each kind
   in its exact share, in a seeded order. *)
let stream env pools name =
  let r = Gen.stream env.seed name in
  let cdfs = Array.map (fun (_, keys) -> Gen.zipf ~s:1.0 (Array.length keys)) pools in
  let block = Array.concat (Array.to_list (Array.mapi (fun k (share, _) -> Array.make share k) pools)) in
  let pos = ref (Array.length block) in
  fun () ->
    if !pos >= Array.length block then begin
      Gen.shuffle r block;
      pos := 0
    end;
    let k = block.(!pos) in
    incr pos;
    let keys = snd pools.(k) in
    let key = keys.(Gen.draw_zipf r cdfs.(k)) in
    let pair = key.kind <> "stats" && Gen.float r < 0.1 in
    (key, pair)

(* What a clean response's text must be: the same request resolved and
   rendered in process, evaluated through Model/fresh serial engines. *)
let expected k =
  match Protocol.decode (Json.Obj (("id", Json.Num 0.0) :: k.body)) with
  | Error (_, m) -> Error m
  | Ok req ->
    let dev spec pattern f =
      match Protocol.resolve_config spec with
      | Error m -> Error m
      | Ok (config, stored) -> (
        match Protocol.resolve_pattern config stored pattern with
        | Error m -> Error m
        | Ok p -> Ok (f config p))
    in
    (match req.Protocol.kind with
     | Protocol.Ping | Protocol.Stats -> Ok ""
     | Protocol.Eval { spec; pattern } ->
       dev spec pattern (fun config p ->
           Render.to_string (fun ppf () -> Render.power ~eval:Model.pattern_power ppf config p) ())
     | Protocol.Sensitivity { spec; pattern; top; variation } ->
       dev spec pattern (fun config p ->
           Render.to_string (Render.sensitivity ~top)
             (Vdram_analysis.Sensitivity.run ?variation ~pattern:p config))
     | Protocol.Corners { spec; pattern; samples; spread } ->
       dev spec pattern (fun config p ->
           Render.to_string
             (Render.corners ~config_name:config.Config.name ~pattern_name:p.Pattern.name)
             (Vdram_analysis.Corners.run ~samples ~spread ~pattern:p config))
     | Protocol.Sweep { spec; pattern; lens; factors } ->
       dev spec pattern (fun config p ->
           match Lenses.find lens with
           | None -> "unknown lens"
           | Some l ->
             Render.to_string Render.sweep (Vdram_analysis.Sweep.run_relative ~lens:l ~factors ~pattern:p config)))

(* ----- the client ---------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  out : Buffer.t;  (** bytes not yet accepted by the socket *)
  mutable outstanding : int;
}

type pending = { id : int; key : key; conn : int; due : float; sent : float; traced : bool }

type reply = {
  p : pending;
  recv : float;
  active : float;  (** [recv] less the bench's excluded time so far *)
  status : string;
  text_md5 : string;
  elapsed_ms : float;  (** nan when the frame carries none *)
  frame : Json.t;
}

type client = {
  conns : conn array;
  pending : (int, pending) Hashtbl.t;
  mutable replies : reply list;
  mutable next_id : int;
  chunk : Bytes.t;
}

let client socket =
  let conn () =
    match Proc.connect socket with
    | None -> failwith "cannot connect to the daemon"
    | Some fd ->
      Unix.set_nonblock fd;
      { fd; inbuf = Buffer.create 65536; out = Buffer.create 4096; outstanding = 0 }
  in
  { conns = [| conn (); conn () |]; pending = Hashtbl.create 64; replies = []; next_id = 1; chunk = Bytes.create 65536 }

let flush_out c =
  if Buffer.length c.out > 0 then begin
    let s = Buffer.contents c.out in
    match Unix.write_substring c.fd s 0 (String.length s) with
    | n ->
      Buffer.clear c.out;
      Buffer.add_substring c.out s n (String.length s - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  end

let send cl ~key ~conn ~due ~traced =
  let id = cl.next_id in
  cl.next_id <- id + 1;
  let c = cl.conns.(conn) in
  Buffer.add_string c.out (line id key);
  Buffer.add_char c.out '\n';
  let sent = Clock.now () in
  Hashtbl.replace cl.pending id { id; key; conn; due; sent; traced };
  c.outstanding <- c.outstanding + 1;
  flush_out c;
  sent

let on_line cl line =
  match Json.parse line with
  | Error _ -> ()
  | Ok frame -> (
    let id = Option.bind (Json.mem "id" frame) Json.int_ in
    let status = Option.value ~default:"" (Option.bind (Json.mem "status" frame) Json.str) in
    match Option.bind id (Hashtbl.find_opt cl.pending) with
    | Some p when status <> "part" ->
      let recv = Clock.now () in
      Hashtbl.remove cl.pending p.id;
      let c = cl.conns.(p.conn) in
      c.outstanding <- c.outstanding - 1;
      let text = Option.value ~default:"" (Option.bind (Json.mem "text" frame) Json.str) in
      let elapsed_ms =
        Option.value ~default:Float.nan (Option.bind (Json.mem "elapsed_ms" frame) Json.num)
      in
      let frame = if p.key.kind = "stats" then frame else Json.Null in
      cl.replies <-
        { p; recv; active = recv -. !Clock.excluded; status; text_md5 = Digest.to_hex (Digest.string text); elapsed_ms; frame }
        :: cl.replies
    | _ -> ())

(* Wait up to [timeout] s for socket activity and handle whatever
   arrives or can be written. *)
let pump cl timeout =
  let rd = Array.to_list (Array.map (fun c -> c.fd) cl.conns) in
  let wr =
    Array.to_list cl.conns |> List.filter (fun c -> Buffer.length c.out > 0) |> List.map (fun c -> c.fd)
  in
  match Unix.select rd wr [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
    Array.iter
      (fun c ->
        if List.memq c.fd writable then flush_out c;
        if List.memq c.fd readable then
          match Unix.read c.fd cl.chunk 0 (Bytes.length cl.chunk) with
          | 0 -> failwith "the daemon closed a connection"
          | n ->
            Buffer.add_subbytes c.inbuf cl.chunk 0 n;
            let s = Buffer.contents c.inbuf in
            let start = ref 0 in
            String.iteri
              (fun i ch ->
                if ch = '\n' then begin
                  on_line cl (String.sub s !start (i - !start));
                  start := i + 1
                end)
              s;
            Buffer.clear c.inbuf;
            Buffer.add_substring c.inbuf s !start (String.length s - !start)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
      cl.conns

let drain cl =
  let deadline = Clock.now () +. 60.0 in
  while Hashtbl.length cl.pending > 0 do
    if Clock.now () > deadline then failwith "requests still unanswered after 60 s";
    pump cl 0.05
  done

(* Phase 1: keep one request outstanding per connection; a pair waits
   for both connections and goes out on both.  When a host-speed sample
   is due, issuing pauses until the daemon is idle, so the sample never
   competes with it for the CPU; [idle ()] then does the bench's other
   work, outside phase time; [at_min_ops ()] runs once, when [min_ops]
   requests have been issued.  Returns the phase start and length, and
   the reference samples with their phase times. *)
let closed_phase cl ~seconds ~min_ops ~idle ~at_min_ops next =
  let start = Clock.now () in
  let x0 = !Clock.excluded in
  let active () = Clock.now () -. start -. (!Clock.excluded -. x0) in
  let held = ref None in
  let issued = ref 0 in
  let refs = ref [] in
  let want () = active () < seconds || !issued < min_ops in
  while want () || Hashtbl.length cl.pending > 0 do
    if want () && Speed.due () then begin
      if Hashtbl.length cl.pending = 0 then begin
        Option.iter (fun d -> refs := (active (), d) :: !refs) (Speed.tick ());
        Clock.exclude idle
      end
      else pump cl 0.05
    end
    else if want () then begin
      let key, pair = match !held with Some h -> h | None -> next () in
      held := Some (key, pair);
      let free = List.filter (fun i -> cl.conns.(i).outstanding = 0) [ 0; 1 ] in
      let go conns =
        List.iter
          (fun conn ->
            let traced = !Harness.tracing && cl.next_id / Harness.trace_block mod 2 = 1 in
            ignore (send cl ~key ~conn ~due:Float.nan ~traced : float);
            incr issued;
            if !issued = min_ops then Clock.exclude at_min_ops)
          conns;
        held := None
      in
      match (pair, free) with
      | true, [ _; _ ] -> go [ 0; 1 ]
      | false, c :: _ -> go [ c ]
      | _ -> pump cl 0.05
    end
    else pump cl 0.05
  done;
  ((start -. x0, active ()), Array.of_list (List.rev !refs))

(* Phase 2: requests are due every 1/R s whatever the daemon does;
   they alternate connections and pipeline behind slow ones.  No
   host-speed samples here: the daemon is never idle.  Returns the phase
   start and length, and how late each request was sent. *)
let open_phase cl ~seconds ~min_ops ~rate next =
  let start = Clock.now () in
  let horizon = Float.max seconds (float_of_int min_ops /. rate) in
  let k = ref 0 in
  let lags = ref [] in
  let due () = start +. (float_of_int !k /. rate) in
  while due () < start +. horizon do
    let d = due () in
    let now = Clock.now () in
    if now >= d then begin
      let key, pair = next () in
      List.iter
        (fun conn ->
          let sent = send cl ~key ~conn ~due:d ~traced:false in
          lags := (sent -. d) :: !lags)
        (if pair then [ 0; 1 ] else [ !k mod 2 ]);
      incr k
    end
    else pump cl (d -. now)
  done;
  drain cl;
  ((start -. !Clock.excluded, Clock.now () -. start), Array.of_list (List.rev !lags))

(* [origin] is the phase start on the clock of [reply.active]. *)
let phase_of (origin, wall) ~refs ~latency replies =
  let replies = List.sort (fun a b -> compare a.p.id b.p.id) replies in
  let arr f = Array.of_list (List.map f replies) in
  let op_items = arr (fun r -> r.p.key.items) in
  {
    Harness.lat = arr latency;
    traced = arr (fun r -> r.p.traced);
    ends = arr (fun r -> r.active -. origin);
    op_items;
    wall;
    ops = List.length replies;
    items = Array.fold_left ( + ) 0 op_items;
    failed = List.length (List.filter (fun r -> r.status <> "ok") replies);
    refs;
  }

(* Set-up is exec -> first ping answered: the serving daemon's boot, and
   then every [spare_every] s of phase 1 a spare daemon booted and
   stopped while the serving one is idle, so that the median sees the
   same host as the ops do. *)
let spare_every = 0.5

let run (env : env) =
  let devices = Array.of_list (Gen.devices ~seed:env.seed ~prefix:"serve" (size env ~full:30 ~quick:3)) in
  let pools = pools env devices in
  let socket = Filename.concat env.work "v.sock" in
  let d, boot_s = Proc.boot ~vdram:env.vdram ~socket in
  Fun.protect ~finally:(fun () -> Proc.stop d) @@ fun () ->
  let setup = ref [ boot_s ] in
  let next_spare = ref 0.0 in
  let spare () =
    if Clock.now () >= !next_spare then begin
      let s, t = Proc.boot ~vdram:env.vdram ~socket:(Filename.concat env.work "spare.sock") in
      Proc.stop s;
      setup := t :: !setup;
      next_spare := Clock.now () +. spare_every
    end
  in
  let cl = client socket in
  let gc0 = Counters.gc_mark () in
  (* The daemon's peak memory is read when phase 1 reaches [min_ops]: the
     same work on every run, however many requests the host fits in the
     window (the daemon grows with the distinct requests it has seen). *)
  let peak_mem_mb = ref Float.nan in
  let p1, refs =
    closed_phase cl ~seconds:(0.7 *. env.seconds) ~min_ops:(size env ~full:4000 ~quick:100)
      ~idle:spare
      ~at_min_ops:(fun () -> peak_mem_mb := Counters.daemon_peak_mb d.Proc.pid)
      (stream env pools "serve/closed")
  in
  let phase1 = cl.replies in
  cl.replies <- [];
  (* Phase-1 spans: the op, and inside it the daemon's own elapsed time
     (placed mid-flight; the remainder is transport). *)
  List.iter
    (fun r ->
      if r.p.traced then begin
        let op = Trace.add ~lane:r.p.conn ~name:("op." ^ r.p.key.kind) ~op:r.p.id r.p.sent r.recv in
        if Float.is_finite r.elapsed_ms then begin
          let el = Float.min (r.elapsed_ms /. 1000.0) (r.recv -. r.p.sent) in
          let t0 = r.p.sent +. ((r.recv -. r.p.sent -. el) /. 2.0) in
          ignore (Trace.add ~parent:op ~lane:r.p.conn ~name:"serve.server" ~op:r.p.id t0 (t0 +. el))
        end
      end)
    phase1;
  let p2, lag =
    open_phase cl ~seconds:(0.3 *. env.seconds) ~min_ops:(size env ~full:20 ~quick:10)
      ~rate:env.rate (stream env pools "serve/open")
  in
  let phase2 = cl.replies in
  cl.replies <- [];
  let closed = phase_of p1 ~refs ~latency:(fun r -> r.recv -. r.p.sent) phase1 in
  let open_ = phase_of p2 ~refs:[||] ~latency:(fun r -> r.recv -. r.p.due) phase2 in
  let gc = Counters.gc_metrics ~since:gc0 ~items:(closed.Harness.items + open_.Harness.items) in
  ignore (send cl ~key:(snd pools.(4)).(0) ~conn:0 ~due:Float.nan ~traced:false : float);
  drain cl;
  let engine_m, serve_m =
    Counters.serve_metrics (match cl.replies with [ r ] -> r.frame | _ -> Json.Null)
  in
  Array.iter (fun c -> Unix.close c.fd) cl.conns;
  (* Untimed checks: every clean text against the in-process render. *)
  let memo = Hashtbl.create 64 in
  let want k =
    match Hashtbl.find_opt memo k.idx with
    | Some m -> m
    | None ->
      let m = Result.map (fun t -> Digest.to_hex (Digest.string t)) (expected k) in
      Hashtbl.add memo k.idx m;
      m
  in
  let wrong =
    List.length
      (List.filter
         (fun r ->
           r.status = "ok"
           &&
           if r.p.key.kind = "stats" then Json.mem "stats" r.frame = None
           else want r.p.key <> Ok r.text_md5)
         (phase1 @ phase2))
  in
  let served = List.filter (fun r -> r.status = "ok" && Float.is_finite r.elapsed_ms) phase1 in
  let med f = Stats.median (Array.of_list (List.map f served)) *. 1000.0 in
  let digest =
    List.sort (fun a b -> compare a.p.id b.p.id) phase1
    |> List.filteri (fun i _ -> i < size env ~full:500 ~quick:100)
    |> List.map (fun r ->
           r.p.key.kind ^ " " ^ r.status ^ " " ^ if r.p.key.kind = "stats" then "" else r.text_md5)
    |> Harness.digest
  in
  {
    setup = Array.of_list !setup;
    closed;
    open_ = Some (open_, lag);
    wrong;
    peak_mem_mb = !peak_mem_mb;
    digest;
    counters =
      engine_m @ serve_m @ gc
      @ [
          ("serve.server_elapsed_ms", med (fun r -> r.elapsed_ms /. 1000.0));
          ("serve.transport_ms", med (fun r -> r.recv -. r.p.sent -. (r.elapsed_ms /. 1000.0)));
        ];
    sample =
      sample_of ~seed:env.seed ~name:"serve/probe" (size env ~full:3 ~quick:1) (Array.to_list devices);
  }
