(* The serve daemon: JSON framing, protocol decoding, coalescing and
   the socket-level server (fault isolation, admission, drain).

   Every server here gets an explicit fault plan ([Faults.none] unless
   the test injects), so a chaos [VDRAM_FAULTS] environment cannot
   perturb the suite.  All sockets are Unix-domain paths under the
   system temp directory. *)

module Json = Vdram_json.Json
module Protocol = Vdram_serve.Protocol
module Render = Vdram_serve.Render
module Coalesce = Vdram_serve.Coalesce
module Server = Vdram_serve.Server
module Engine = Vdram_engine.Engine
module Faults = Vdram_engine.Faults
module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model

let check_true = Helpers.check_true

(* ----- JSON ------------------------------------------------------------ *)

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

(* Round trips of every value shape are the qcheck properties below;
   this pins the escapes, number spellings and line layout. *)
let json_roundtrip () =
  (* Escapes and unicode decode to the bytes we expect. *)
  (match parse_ok {|"aA\n\t"|} with
   | Json.Str s -> Alcotest.(check string) "\\uXXXX escape" "aA\n\t" s
   | _ -> Alcotest.fail "expected a string");
  (match parse_ok {|"😀"|} with
   | Json.Str s ->
     Alcotest.(check string) "surrogate pair to UTF-8" "\xf0\x9f\x98\x80" s
   | _ -> Alcotest.fail "expected a string");
  (match parse_ok {|"\u00e9\u20ac"|} with
   | Json.Str s ->
     Alcotest.(check string) "2- and 3-byte UTF-8" "\xc3\xa9\xe2\x82\xac" s
   | _ -> Alcotest.fail "expected a string");
  (match parse_ok "1e3" with
   | Json.Num v -> Helpers.close "exponent literal" 1000.0 v
   | _ -> Alcotest.fail "expected a number");
  (* Integral floats print compactly; non-finite collapses to null. *)
  Alcotest.(check string) "integral print" "1000" (Json.to_string (Json.Num 1000.));
  Alcotest.(check string) "nan prints null" "null" (Json.to_string (Json.Num Float.nan));
  (* The --fail-log layout: members and a member's list items one per
     line, deeper values inline. *)
  Alcotest.(check string) "line layout"
    "{\n  \"a\": 1.5,\n  \"l\": [\n    {\"b\": [true, null]},\n    2\n  ],\n\
    \  \"e\": []\n}\n"
    (Json.to_lines
       (Json.Obj
          [ ("a", Json.Lit "1.5");
            ( "l",
              Json.List
                [ Json.Obj [ ("b", Json.List [ Json.Bool true; Json.Null ]) ];
                  Json.Num 2. ] );
            ("e", Json.List []) ]))

let json_rejects () =
  let bad =
    [
      "";
      "{";
      "[1,2";
      "1 2";
      "tru";
      "\"unterminated";
      {|"bad \q escape"|};
      {|"lone \ud800 surrogate"|};
      "\"raw \x01 control\"";
      String.concat "" (List.init 100 (fun _ -> "[")) ^ "1"
      ^ String.concat "" (List.init 100 (fun _ -> "]"));
    ]
  in
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok v ->
        Alcotest.failf "hostile input %S parsed as %s" s (Json.to_string v))
    bad

(* Generated values without [Lit]: strings and keys over all 256 byte
   values; numbers from raw bit patterns (NaN, infinities and
   subnormals included) plus the printer's edge cases; containers
   nested down to the parser's 64-level limit. *)
let json_gen =
  QCheck.Gen.(
    let bytes = string_size ~gen:char (int_range 0 8) in
    let number =
      frequency
        [ (2, map Int64.float_of_bits ui64);
          (1, map float_of_int int);
          (* Integers either side of the printer's 1e15 switch. *)
          (1, map (fun d -> 1e15 +. float_of_int d) (int_range (-3) 3));
          ( 1,
            oneofl
              [ 0.0; -0.0; 5e-324; -2.2250738585072009e-308; 0.1;
                max_float; -.max_float; Float.nan; Float.infinity;
                Float.neg_infinity ] ) ]
    in
    let leaf =
      oneof
        [ return Json.Null; map (fun b -> Json.Bool b) bool;
          map (fun x -> Json.Num x) number; map (fun s -> Json.Str s) bytes ]
    in
    let tree =
      fix
        (fun self depth ->
          if depth = 0 then leaf
          else
            let items g = list_size (int_range 0 4) g in
            frequency
              [ (2, leaf);
                (1, map (fun vs -> Json.List vs) (items (self (depth - 1))));
                ( 1,
                  map
                    (fun ms -> Json.Obj ms)
                    (items (pair bytes (self (depth - 1)))) ) ])
        4
    in
    (* [tree] nests at most 4 containers; 60 more wrappers put its
       leaves exactly at the limit. *)
    let* v = tree in
    let* wraps = frequency [ (1, return 60); (3, int_range 0 60) ] in
    let+ keys = list_repeat wraps (option bytes) in
    List.fold_left
      (fun v -> function
        | None -> Json.List [ v ]
        | Some k -> Json.Obj [ (k, v) ])
      v keys)

let json_arbitrary = QCheck.make ~print:Json.to_string json_gen

(* Whether [got] is what printing [v] must read back as: numbers bit
   for bit (so -0.0 stays negative), non-finite ones as [null], which
   is all JSON can spell them as. *)
let rec json_reads_back v got =
  match (v, got) with
  | Json.Num x, Json.Null -> not (Float.is_finite x)
  | Json.Num x, Json.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Json.List xs, Json.List ys -> List.equal json_reads_back xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, x) (l, y) -> k = l && json_reads_back x y) xs ys
  | _ -> v = got

let json_roundtrip_property =
  QCheck.Test.make ~count:300
    ~name:"json: generated values round-trip through both printers"
    json_arbitrary (fun v ->
      (* A compact value is exactly one serve frame. *)
      (not (String.contains (Json.to_string v) '\n'))
      && List.for_all
           (fun print ->
             match Json.parse (print v) with
             | Ok got -> json_reads_back v got
             | Error e -> QCheck.Test.fail_reportf "%s: %S" e (print v))
           [ Json.to_string; Json.to_lines ])

let json_parse_total =
  QCheck.Test.make ~count:300
    ~name:"json: parse returns on random bytes and every printed prefix"
    (QCheck.pair
       (QCheck.string_gen_of_size QCheck.Gen.(int_range 0 64) QCheck.Gen.char)
       json_arbitrary)
    (fun (noise, v) ->
      ignore (Json.parse noise : (Json.t, string) result);
      List.for_all
        (fun s ->
          for i = 0 to String.length s do
            ignore (Json.parse (String.sub s 0 i) : (Json.t, string) result)
          done;
          true)
        [ Json.to_string v; Json.to_lines v ])

(* ----- protocol -------------------------------------------------------- *)

let decode s =
  match Json.parse s with
  | Ok j -> Protocol.decode j
  | Error e -> Alcotest.failf "fixture %S is not JSON: %s" s e

let protocol_decode () =
  (match decode {|{"id":"x","op":"ping"}|} with
   | Ok { Protocol.id = Json.Str "x"; kind = Protocol.Ping; deadline = None } ->
     ()
   | Ok _ -> Alcotest.fail "ping decoded to the wrong request"
   | Error (_, e) -> Alcotest.failf "ping rejected: %s" e);
  (match decode {|{"op":"eval"}|} with
   | Ok { Protocol.id = Json.Null; kind = Protocol.Eval _; _ } -> ()
   | Ok _ -> Alcotest.fail "bare eval decoded to the wrong request"
   | Error (_, e) -> Alcotest.failf "bare eval rejected: %s" e);
  (match decode {|{"op":"corners","samples":50,"spread":0.2,"deadline":1.5}|} with
   | Ok
       {
         Protocol.kind = Protocol.Corners { samples = 50; spread; _ };
         deadline = Some d;
         _;
       } ->
     Helpers.close "spread decoded" 0.2 spread;
     Helpers.close "deadline decoded" 1.5 d
   | Ok _ -> Alcotest.fail "corners decoded to the wrong request"
   | Error (_, e) -> Alcotest.failf "corners rejected: %s" e);
  (* Defaults are applied, not required. *)
  (match decode {|{"op":"sensitivity"}|} with
   | Ok { Protocol.kind = Protocol.Sensitivity { top = 15; _ }; _ } -> ()
   | Ok _ -> Alcotest.fail "sensitivity default top missing"
   | Error (_, e) -> Alcotest.failf "sensitivity rejected: %s" e);
  let rejected ?(id = Json.Null) s =
    match decode s with
    | Error (got_id, _) ->
      Alcotest.(check string)
        (Printf.sprintf "error echoes id for %s" s)
        (Json.to_string id) (Json.to_string got_id)
    | Ok _ -> Alcotest.failf "bad request %S decoded" s
  in
  rejected {|{"op":"nope"}|};
  rejected {|{"op":"eval","deadline":-1}|};
  rejected {|{"op":"corners","samples":0}|};
  rejected {|{"op":"corners","spread":1}|};
  rejected {|{"op":"corners","spread":-0.1}|};
  rejected ~id:(Json.Num 7.) {|{"id":7,"op":"sweep","lens":"vdd"}|};
  rejected {|["not","an","object"]|};
  rejected {|{"no_op":true}|};
  (* Commodity knobs the device cannot be built from are request
     errors, as the CLI's usage errors are. *)
  let node = Vdram_tech.Node.N65 in
  List.iter
    (fun (what, result) ->
      match result with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "commodity with %s built a device" what)
    [ ("io_width 0", Protocol.commodity ~io_width:0 node);
      ("io_width -4", Protocol.commodity ~io_width:(-4) node);
      ("density 0", Protocol.commodity ~density_mbits:0.0 node);
      ("density -1", Protocol.commodity ~density_mbits:(-1.0) node);
      ("density 1000", Protocol.commodity ~density_mbits:1000.0 node);
      ("density nan", Protocol.commodity ~density_mbits:Float.nan node);
      ("density inf", Protocol.commodity ~density_mbits:Float.infinity node);
      ("datarate 0bps", Protocol.commodity ~datarate:"0bps" node);
      ("datarate -1Gbps", Protocol.commodity ~datarate:"-1Gbps" node) ]

let req s =
  match decode s with
  | Ok r -> r
  | Error (_, e) -> Alcotest.failf "request %S rejected: %s" s e

let protocol_work_key () =
  let k s = Protocol.work_key (req s) in
  (* Identity: same work, different id, same key. *)
  (match (k {|{"id":"a","op":"eval"}|}, k {|{"id":"b","op":"eval"}|}) with
   | Some a, Some b -> Alcotest.(check string) "id is not part of the key" a b
   | _ -> Alcotest.fail "eval requests must have keys");
  let distinct msg a b =
    match (k a, k b) with
    | Some ka, Some kb ->
      check_true msg (not (String.equal ka kb))
    | _ -> Alcotest.fail "both requests must have keys"
  in
  distinct "samples differ the key" {|{"op":"corners","samples":10}|}
    {|{"op":"corners","samples":11}|};
  distinct "deadline differs the key" {|{"op":"eval"}|}
    {|{"op":"eval","deadline":2}|};
  distinct "op differs the key" {|{"op":"eval"}|} {|{"op":"sensitivity"}|};
  check_true "ping is never coalesced" (k {|{"op":"ping"}|} = None);
  check_true "stats is never coalesced" (k {|{"op":"stats"}|} = None)

(* ----- render bit-identity --------------------------------------------- *)

let default_spec =
  {
    Protocol.source = None;
    node = None;
    density_mbits = None;
    io_width = None;
    datarate = None;
  }

let default_power_text () =
  match Protocol.resolve_config default_spec with
  | Error e -> Alcotest.failf "default config: %s" e
  | Ok (cfg, stored) ->
    (match Protocol.resolve_pattern cfg stored None with
     | Error e -> Alcotest.failf "default pattern: %s" e
     | Ok p ->
       ( cfg,
         p,
         Render.to_string
           (fun ppf () -> Render.power ~eval:Model.pattern_power ppf cfg p)
           () ))

let render_engine_identity () =
  let cfg, p, cli = default_power_text () in
  let e = Engine.create ~jobs:1 () in
  let served =
    Render.to_string
      (fun ppf () -> Render.power ~eval:(Engine.eval e) ppf cfg p)
      ()
  in
  Alcotest.(check string) "engine-backed render equals model-backed" cli served;
  check_true "report is non-trivial" (String.length cli > 200)

(* ----- coalescing ------------------------------------------------------ *)

let coalesce_single_flight () =
  let c : int Coalesce.t = Coalesce.create () in
  let n = 6 in
  let computed = Atomic.make 0 in
  let results = Array.make n (-1) in
  let f () =
    Atomic.incr computed;
    (* Followers increment the shared counter before blocking, so the
       leader can hold the flight open until every thread has joined —
       this is what makes "exactly one computation" deterministic. *)
    let rec wait () =
      let _, shared = Coalesce.counters c in
      if shared < n - 1 then begin
        Thread.yield ();
        wait ()
      end
    in
    wait ();
    42
  in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            match Coalesce.run c ~key:"k" f with
            | `Led v | `Shared v -> results.(i) <- v)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "exactly one computation" 1 (Atomic.get computed);
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "caller %d shares" i) 42 v)
    results;
  let led, shared = Coalesce.counters c in
  Alcotest.(check (pair int int)) "counters" (1, n - 1) (led, shared);
  (* The flight is gone: a later caller computes afresh. *)
  (match Coalesce.run c ~key:"k" (fun () -> Atomic.incr computed; 7) with
   | `Led 7 -> ()
   | _ -> Alcotest.fail "post-flight caller must lead");
  Alcotest.(check int) "fresh flight recomputes" 2 (Atomic.get computed)

let coalesce_error_propagation () =
  let c : int Coalesce.t = Coalesce.create () in
  let computed = Atomic.make 0 in
  let outcomes = Array.make 2 "pending" in
  let f () =
    Atomic.incr computed;
    let rec wait () =
      let _, shared = Coalesce.counters c in
      if shared < 1 then begin
        Thread.yield ();
        wait ()
      end
    in
    wait ();
    failwith "boom"
  in
  let threads =
    List.init 2 (fun i ->
        Thread.create
          (fun () ->
            outcomes.(i) <-
              (match Coalesce.run c ~key:"k" f with
               | `Led _ | `Shared _ -> "value"
               | exception Failure m -> "raised " ^ m))
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "one computation" 1 (Atomic.get computed);
  Array.iter
    (fun o -> Alcotest.(check string) "both callers re-raise" "raised boom" o)
    outcomes

(* ----- socket-level server --------------------------------------------- *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "vdram-serve-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

(* Boot a daemon on a fresh Unix socket, run [f server path], then
   drain and check the listener was unlinked — every test doubles as a
   clean-drain test. *)
let with_server ?(faults = Faults.none) ?(max_inflight = 8)
    ?(max_frame_bytes = 1 lsl 20) ?(drain_grace = 5.0)
    ?(engine = Engine.create ~jobs:1 ()) f =
  let path = fresh_sock () in
  let cfg =
    {
      (Server.default_config (Server.Unix_path path)) with
      Server.max_inflight;
      max_frame_bytes;
      drain_grace;
    }
  in
  match Server.create ~faults ~engine cfg with
  | Error e -> Alcotest.failf "server boot: %s" e
  | Ok server ->
    let th = Thread.create (fun () -> Server.serve server) () in
    Fun.protect
      ~finally:(fun () ->
        Server.drain server;
        Thread.join th;
        check_true "socket unlinked after drain" (not (Sys.file_exists path)))
      (fun () -> f server path)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_raw fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let send_line fd s = send_raw fd (s ^ "\n")

(* Read until [n] complete frames arrived, EOF, or timeout; parse each
   line as JSON. *)
let recv_frames ?(timeout = 30.0) fd n =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let frames = ref [] in
  let count = ref 0 in
  let deadline = Unix.gettimeofday () +. timeout in
  let split () =
    let continue = ref true in
    while !continue do
      let s = Buffer.contents buf in
      match String.index_opt s '\n' with
      | None -> continue := false
      | Some i ->
        frames := String.sub s 0 i :: !frames;
        incr count;
        Buffer.clear buf;
        Buffer.add_substring buf s (i + 1) (String.length s - i - 1)
    done
  in
  let rec go () =
    if !count < n && Unix.gettimeofday () < deadline then
      match Unix.select [ fd ] [] [] 0.25 with
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          split ();
          go ())
  in
  go ();
  List.rev_map
    (fun line ->
      match Json.parse line with
      | Ok j -> j
      | Error e -> Alcotest.failf "unparseable frame %S: %s" line e)
    !frames

let jget frame k =
  match Json.mem k frame with
  | Some v -> v
  | None ->
    Alcotest.failf "frame %s lacks field %S" (Json.to_string frame) k

let jstr frame k =
  match Json.str (jget frame k) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string" k

let jbool frame k =
  match Json.bool_ (jget frame k) with
  | Some b -> b
  | None -> Alcotest.failf "field %S is not a bool" k

let one = function
  | [ f ] -> f
  | l -> Alcotest.failf "expected exactly one frame, got %d" (List.length l)

let server_basics () =
  let _, _, expected = default_power_text () in
  with_server (fun _server path ->
      let fd = connect path in
      send_line fd {|{"id":"p1","op":"ping"}|};
      let ping = one (recv_frames fd 1) in
      Alcotest.(check string) "ping ok" "ok" (jstr ping "status");
      Alcotest.(check string) "ping op" "ping" (jstr ping "op");
      Alcotest.(check string) "ping echoes id" "p1"
        (match Json.mem "id" ping with
         | Some (Json.Str s) -> s
         | _ -> "<missing>");
      send_line fd {|{"id":"e1","op":"eval"}|};
      let ev = one (recv_frames fd 1) in
      Alcotest.(check string) "eval ok" "ok" (jstr ev "status");
      (* The headline property: the daemon's text equals the one-shot
         CLI's stdout for the same request, byte for byte. *)
      Alcotest.(check string) "serve text is bit-identical to the CLI"
        expected (jstr ev "text");
      check_true "solo request is not coalesced" (not (jbool ev "coalesced"));
      send_line fd {|{"id":"s1","op":"stats"}|};
      let st = one (recv_frames fd 1) in
      Alcotest.(check string) "stats ok" "ok" (jstr st "status");
      let stats = jget st "stats" in
      let requests = jget stats "requests" in
      (match Json.int_ (jget requests "received") with
       | Some n -> check_true "stats counts requests" (n >= 3)
       | None -> Alcotest.fail "requests.received is not an int");
      check_true "engine block present" (Json.mem "engine" stats <> None);
      Unix.close fd)

(* A malformed datarate is a bad request, never the default part; the
   roadmap's rates, written as the benchmark ledger sends them, all
   parse to the same speed. *)
let protocol_datarate () =
  let resolve datarate =
    Protocol.resolve_config
      { default_spec with Protocol.datarate = Some datarate }
  in
  List.iter
    (fun s ->
      match resolve s with
      | Ok _ -> Alcotest.failf "datarate %S must be rejected" s
      | Error e ->
        check_true
          (Printf.sprintf "%S: error names the datarate (%s)" s e)
          (String.starts_with ~prefix:(Printf.sprintf "bad datarate %S" s) e))
    [ "garbage"; "1.6"; "1.6GHz"; "" ];
  List.iter
    (fun (g : Vdram_tech.Roadmap.t) ->
      let s = Printf.sprintf "%gMbps" (g.Vdram_tech.Roadmap.datarate /. 1e6) in
      match resolve s with
      | Error e -> Alcotest.failf "datarate %S: %s" s e
      | Ok (cfg, _) ->
        Helpers.close_rel ~rel:1e-5 s g.Vdram_tech.Roadmap.datarate
          cfg.Config.spec.Vdram_core.Spec.datarate)
    Vdram_tech.Roadmap.all;
  with_server (fun _server path ->
      let fd = connect path in
      send_line fd {|{"id":"d1","op":"eval","config":{"datarate":"1.6"}}|};
      let e = one (recv_frames fd 1) in
      Alcotest.(check string) "served class" "bad_request" (jstr e "class");
      Unix.close fd)

let server_bad_frames () =
  with_server ~max_frame_bytes:256 (fun _server path ->
      let fd = connect path in
      (* Garbage JSON: structured rejection, connection survives. *)
      send_line fd "this is not json";
      let e1 = one (recv_frames fd 1) in
      Alcotest.(check string) "garbage status" "error" (jstr e1 "status");
      Alcotest.(check string) "garbage class" "bad_frame" (jstr e1 "class");
      (* Valid JSON, invalid request: bad_request with the id echoed. *)
      send_line fd {|{"id":"br","op":"warp"}|};
      let e2 = one (recv_frames fd 1) in
      Alcotest.(check string) "bad request class" "bad_request"
        (jstr e2 "class");
      Alcotest.(check string) "bad request echoes id" "br"
        (match Json.mem "id" e2 with
         | Some (Json.Str s) -> s
         | _ -> "<missing>");
      (* A spread of 1 or more allows corners factors of zero or less. *)
      send_line fd {|{"id":"sp","op":"corners","spread":2.5}|};
      let e_spread = one (recv_frames fd 1) in
      Alcotest.(check string) "out-of-range spread class" "bad_request"
        (jstr e_spread "class");
      Alcotest.(check string) "out-of-range spread message"
        "field \"spread\" must be >= 0 and < 1" (jstr e_spread "message");
      (* A device that cannot be built is the request's fault. *)
      List.iter
        (fun config ->
          send_line fd
            (Printf.sprintf {|{"id":"cfg","op":"eval","config":%s}|} config);
          let e = one (recv_frames fd 1) in
          Alcotest.(check string) ("class of config " ^ config) "bad_request"
            (jstr e "class"))
        [ {|{"io_width":0}|}; {|{"io_width":-4}|};
          {|{"density_mbits":0}|}; {|{"density_mbits":-1}|};
          {|{"density_mbits":1000}|}; {|{"density_mbits":1e999}|};
          {|{"io_width":16384}|}; {|{"density_mbits":1e300}|};
          {|{"datarate":"0bps"}|}; {|{"datarate":"-1Gbps"}|};
          {|{"source":"Device\nPart name=w node=65nm\nSpecification\nIO width=0\n"}|};
          {|{"source":"Device\nPart name=w node=65nm\nFloorplanPhysical\nCellArray BitsPerLWL=0\n"}|}
        ];
      (* Oversized line: rejected at the cap, stream resyncs at the
         next newline and the connection keeps working. *)
      send_raw fd (String.make 400 'x');
      let e3 = one (recv_frames fd 1) in
      Alcotest.(check string) "oversized class" "bad_frame" (jstr e3 "class");
      send_raw fd "tail of the oversized frame\n";
      send_line fd {|{"id":"p2","op":"ping"}|};
      let ok = one (recv_frames fd 1) in
      Alcotest.(check string) "connection survives hostile frames" "ok"
        (jstr ok "status");
      Unix.close fd)

(* A report that is not finite fails validation in whichever row it
   is: the requested loop has no column access and stays finite, while
   the Idd4R row of the same answer, whose data buses and column path
   stack more signal wire, does not. *)
let server_non_finite () =
  with_server (fun _server path ->
      let fd = connect path in
      send_line fd
        ({|{"id":"hot","op":"eval","pattern":"act nop pre nop",|}
        ^ {|"config":{"source":"Device\nPart name=hot node=65nm\nTechnology\nSet cwiresignal=1e300F/m\n"}}|});
      let f = one (recv_frames fd 1) in
      Alcotest.(check string) "refused" "error" (jstr f "status");
      Alcotest.(check string) "classified validate" "validate" (jstr f "class");
      Alcotest.(check string) "the batch commands' message"
        "non-finite value in report hot | Idd4R" (jstr f "message");
      Unix.close fd)

let server_split_frames () =
  with_server (fun _server path ->
      let fd = connect path in
      (* One frame delivered across three writes must decode once. *)
      send_raw fd {|{"id":"sp","op":|};
      Thread.delay 0.05;
      send_raw fd {|"ping"}|};
      Thread.delay 0.05;
      send_raw fd "\n";
      let ok = one (recv_frames fd 1) in
      Alcotest.(check string) "split frame decodes" "ok" (jstr ok "status");
      (* Two frames in one write both decode. *)
      send_raw fd
        ({|{"id":"a","op":"ping"}|} ^ "\n" ^ {|{"id":"b","op":"ping"}|} ^ "\n");
      let frames = recv_frames fd 2 in
      Alcotest.(check int) "pipelined frames" 2 (List.length frames);
      List.iter
        (fun f -> Alcotest.(check string) "pipelined ok" "ok" (jstr f "status"))
        frames;
      Unix.close fd)

let server_half_close () =
  with_server (fun _server path ->
      let fd = connect path in
      send_line fd {|{"id":"h","op":"ping"}|};
      send_raw fd {|{"partial":|};
      (* Half-close: we stop writing; the daemon must still answer the
         complete frame and flag the truncated one. *)
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let frames = recv_frames fd 2 in
      (match frames with
       | [ ok; err ] ->
         Alcotest.(check string) "ping answered after half-close" "ok"
           (jstr ok "status");
         Alcotest.(check string) "truncated tail flagged" "bad_frame"
           (jstr err "class");
         check_true "truncation mentioned"
           (String.length (jstr err "message") > 0)
       | l -> Alcotest.failf "expected 2 frames, got %d" (List.length l));
      (* Server closes its side after EOF. *)
      let tail = recv_frames ~timeout:5.0 fd 1 in
      Alcotest.(check int) "no frames after close" 0 (List.length tail);
      Unix.close fd)

let stall_plan per_item =
  {
    Faults.seed = 0;
    rate = 1.0;
    action = Some (Faults.Stall (Faults.Mix, per_item));
    corrupt_store = false;
  }

let server_coalescing ~jobs () =
  (* Every item stalls 80 ms in the mix stage, so the 8-sample corners
     computation holds its flight open for >0.6 s — room for the three
     followers to join.  The coalesce counters then prove exactly one
     computation ran: compute() is only ever invoked by a leader. *)
  with_server ~faults:(stall_plan 0.08) ~engine:(Engine.create ~jobs ())
    (fun server path ->
      let n = 4 in
      let results = Array.make n None in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                let fd = connect path in
                send_line fd {|{"id":"c","op":"corners","samples":8}|};
                (match recv_frames fd 1 with
                 | [ f ] -> results.(i) <- Some f
                 | _ -> ());
                Unix.close fd)
              ())
      in
      List.iter Thread.join threads;
      let frames =
        Array.to_list results
        |> List.map (function
             | Some f -> f
             | None -> Alcotest.fail "a client got no terminal frame")
      in
      List.iter
        (fun f ->
          Alcotest.(check string) "coalesced request ok" "ok" (jstr f "status"))
        frames;
      let texts = List.map (fun f -> jstr f "text") frames in
      List.iter
        (fun t ->
          Alcotest.(check string) "all callers share one result"
            (List.hd texts) t)
        texts;
      let led, shared = Server.coalesce_counters server in
      Alcotest.(check (pair int int))
        "counter-verified: one computation, three shares" (1, n - 1)
        (led, shared);
      let coalesced =
        List.length (List.filter (fun f -> jbool f "coalesced") frames)
      in
      Alcotest.(check int) "three responses marked coalesced" (n - 1) coalesced)

(* A stall sleeps, which releases the runtime lock, so the test above
   cannot tell whether connections take turns on it.  Here nothing
   stalls: the leader's corners run is pure computation (tens of ms),
   and the other connection joins its flight only if its thread can
   read and decode while the leader computes.  A fresh spread per trial
   keeps every trial off the engine's caches. *)
let server_cpu_bound_flight () =
  with_server (fun server path ->
      let fds = [ connect path; connect path ] in
      (* A ping on each first, so both connection threads are running. *)
      List.iter
        (fun fd ->
          send_line fd {|{"id":"p","op":"ping"}|};
          ignore (one (recv_frames fd 1) : Json.t))
        fds;
      for trial = 1 to 5 do
        let led0, shared0 = Server.coalesce_counters server in
        let line =
          Printf.sprintf {|{"id":%d,"op":"corners","samples":1500,"spread":%g}|}
            trial
            (0.05 +. (0.01 *. float_of_int trial))
        in
        List.iter (fun fd -> send_line fd line) fds;
        let frames = List.map (fun fd -> one (recv_frames fd 1)) fds in
        List.iter
          (fun f -> Alcotest.(check string) "flight ok" "ok" (jstr f "status"))
          frames;
        Alcotest.(check string) "both callers get one text"
          (jstr (List.hd frames) "text")
          (jstr (List.nth frames 1) "text");
        let led, shared = Server.coalesce_counters server in
        Alcotest.(check (pair int int))
          (Printf.sprintf "trial %d: one computation, one share" trial)
          (1, 1)
          (led - led0, shared - shared0)
      done;
      List.iter Unix.close fds)

let server_fault_isolation () =
  let plan =
    {
      Faults.seed = 3;
      rate = 1.0;
      action = Some (Faults.Raise Faults.Mix);
      corrupt_store = false;
    }
  in
  with_server ~faults:plan (fun _server path ->
      let fd = connect path in
      send_line fd {|{"id":"f1","op":"eval"}|};
      let e1 = one (recv_frames fd 1) in
      Alcotest.(check string) "injected fault fails the request" "error"
        (jstr e1 "status");
      Alcotest.(check string) "classified at its stage" "mix"
        (jstr e1 "class");
      check_true "flagged as injected" (jbool e1 "injected");
      (* The daemon itself is unharmed: the next request is served. *)
      send_line fd {|{"id":"p","op":"ping"}|};
      let ok = one (recv_frames fd 1) in
      Alcotest.(check string) "daemon survives the fault" "ok"
        (jstr ok "status");
      send_line fd {|{"id":"s","op":"stats"}|};
      let st = one (recv_frames fd 1) in
      let failures = jget (jget st "stats") "failures" in
      (match
         (Json.int_ (jget failures "items"), Json.int_ (jget failures "injected"))
       with
       | Some items, Some injected ->
         check_true "failures counted" (items >= 1);
         Alcotest.(check int) "all failures are injected" items injected
       | _ -> Alcotest.fail "failure counters are not ints");
      Unix.close fd)

let server_deadline () =
  (* Each item stalls 150 ms; a 50 ms per-item deadline must classify
     the overrun as a deadline failure, not a success. *)
  with_server ~faults:(stall_plan 0.15) (fun _server path ->
      let fd = connect path in
      send_line fd {|{"id":"d","op":"eval","deadline":0.05}|};
      let f = one (recv_frames fd 1) in
      Alcotest.(check string) "deadline overrun is an error" "error"
        (jstr f "status");
      Alcotest.(check string) "classified as deadline" "deadline"
        (jstr f "class");
      Unix.close fd)

let server_overload ~jobs () =
  with_server ~faults:(stall_plan 0.08) ~max_inflight:1
    ~engine:(Engine.create ~jobs ()) (fun _server path ->
      let fd1 = connect path in
      send_line fd1 {|{"id":"slow","op":"corners","samples":8}|};
      Thread.delay 0.25;
      (* Different work key, so it cannot coalesce with the in-flight
         request: admission control must reject it immediately. *)
      let fd2 = connect path in
      send_line fd2 {|{"id":"fast","op":"corners","samples":7}|};
      let rej = one (recv_frames fd2 1) in
      Alcotest.(check string) "rejected" "error" (jstr rej "status");
      Alcotest.(check string) "classified overloaded" "overloaded"
        (jstr rej "class");
      (match Json.int_ (jget rej "retry_after_ms") with
       | Some ms -> check_true "retry hint present" (ms > 0)
       | None -> Alcotest.fail "retry_after_ms missing");
      (* Ping bypasses admission even while saturated. *)
      send_line fd2 {|{"id":"p","op":"ping"}|};
      let ping = one (recv_frames fd2 1) in
      Alcotest.(check string) "ping bypasses admission" "ok"
        (jstr ping "status");
      (* The slow request still completes normally. *)
      let slow = one (recv_frames fd1 1) in
      Alcotest.(check string) "in-flight request completes" "ok"
        (jstr slow "status");
      Unix.close fd1;
      Unix.close fd2)

let server_sweep_streams () =
  with_server (fun _server path ->
      let fd = connect path in
      send_line fd
        ({|{"id":"sw","op":"sweep","lens":"external voltage Vdd",|}
        ^ {|"factors":[0.9,0.92,0.94,0.96,0.98,1.0,1.02,1.04,1.06,1.1]}|});
      (* Ten factors stream as two chunks of eight, then a terminal. *)
      let frames = recv_frames fd 3 in
      (match frames with
       | [ p0; p1; term ] ->
         Alcotest.(check string) "first part" "part" (jstr p0 "status");
         Alcotest.(check string) "second part" "part" (jstr p1 "status");
         Alcotest.(check string) "terminal ok" "ok" (jstr term "status");
         Alcotest.(check string) "terminal op" "sweep" (jstr term "op");
         check_true "terminal carries the rendered text"
           (String.length (jstr term "text") > 0)
       | l -> Alcotest.failf "expected 3 frames, got %d" (List.length l));
      (* Unknown lens is a per-request error, not a dead daemon. *)
      send_line fd {|{"id":"bad","op":"sweep","lens":"warp","factors":[1.0]}|};
      let err = one (recv_frames fd 1) in
      Alcotest.(check string) "unknown lens rejected" "bad_request"
        (jstr err "class");
      send_line fd {|{"id":"p","op":"ping"}|};
      Alcotest.(check string) "daemon alive after lens error" "ok"
        (jstr (one (recv_frames fd 1)) "status");
      Unix.close fd)

(* A sweep of 4800 factors: its part frames fill the socket buffers of
   a client that does not read them, so whoever writes them blocks. *)
let send_big_sweep fd =
  let factors =
    String.concat ","
      (List.init 4800 (fun i ->
           Printf.sprintf "%.6f" (0.9 +. (0.2 *. float_of_int i /. 4800.0))))
  in
  send_line fd
    (Printf.sprintf
       {|{"id":"big","op":"sweep","lens":"external voltage Vdd","factors":[%s]}|}
       factors)

(* One computing domain, and a client that sends a large sweep and
   never reads.  An eval on a second connection must still finish. *)
let server_stuck_reader () =
  with_server (fun _server path ->
      let stuck = connect path in
      send_big_sweep stuck;
      Fun.protect
        ~finally:(fun () -> Unix.close stuck)
        (fun () ->
          Thread.delay 0.5;
          let fd = connect path in
          send_line fd {|{"id":"e","op":"eval"}|};
          (match recv_frames ~timeout:10.0 fd 1 with
           | [ f ] ->
             Alcotest.(check string) "the eval finishes" "ok" (jstr f "status")
           | _ -> Alcotest.fail "the eval waited for the stuck client");
          Unix.close fd))

(* The stuck client's connection thread blocks writing a part while it
   holds the connection's write lock, which the drain needs for the
   request's aborted terminal.  The drain must still end within its
   grace plus 2 s; it unlinks the socket last. *)
let server_drain_stuck_reader () =
  let grace = 0.5 in
  with_server ~drain_grace:grace (fun server path ->
      let stuck = connect path in
      send_big_sweep stuck;
      Fun.protect
        ~finally:(fun () -> Unix.close stuck)
        (fun () ->
          Thread.delay 0.5;
          let t0 = Unix.gettimeofday () in
          Server.drain server;
          while
            Sys.file_exists path && Unix.gettimeofday () -. t0 < grace +. 2.0
          do
            Thread.delay 0.02
          done;
          check_true
            (Printf.sprintf "drained within %.1f s (took %.2f s)" (grace +. 2.0)
               (Unix.gettimeofday () -. t0))
            (not (Sys.file_exists path))))

let server_drain_aborts ~jobs () =
  (* A request stalling ~1.5 s against a 0.2 s drain grace must be
     force-aborted with exactly one terminal frame. *)
  with_server ~faults:(stall_plan 0.15) ~drain_grace:0.2
    ~engine:(Engine.create ~jobs ()) (fun server path ->
      let fd = connect path in
      send_line fd {|{"id":"long","op":"corners","samples":10}|};
      Thread.delay 0.3;
      Server.drain server;
      (* Collect everything until the server closes the connection. *)
      let frames = recv_frames ~timeout:10.0 fd 99 in
      let terminals =
        List.filter
          (fun f ->
            match jstr f "status" with "ok" | "error" -> true | _ -> false)
          frames
      in
      (match terminals with
       | [ t ] ->
         Alcotest.(check string) "aborted terminal" "error" (jstr t "status");
         Alcotest.(check string) "classified aborted" "aborted"
           (jstr t "class")
       | l ->
         Alcotest.failf "expected exactly one terminal frame, got %d"
           (List.length l));
      Unix.close fd)

let server_drain_flushes_store () =
  let module Store = Vdram_engine.Store in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "vdram-serve-test-store"
  in
  let st = Engine.store_open ~dir () in
  Store.clear st;
  let engine = Engine.create ~jobs:1 ~store:st () in
  with_server ~engine (fun _server path ->
      let fd = connect path in
      send_line fd {|{"id":"e","op":"eval"}|};
      Alcotest.(check string) "eval ok" "ok"
        (jstr (one (recv_frames fd 1)) "status");
      Unix.close fd);
  (* with_server drained on the way out; drain must have flushed. *)
  check_true "drain flushed the mix snapshot"
    (Sys.file_exists (Store.path st "mix"));
  check_true "drain left nothing dirty" (not (Engine.store_dirty engine));
  Store.clear st

let suite =
  [
    Alcotest.test_case "json round-trip and escapes" `Quick json_roundtrip;
    Alcotest.test_case "json rejects hostile input" `Quick json_rejects;
    Helpers.qcheck json_roundtrip_property;
    Helpers.qcheck json_parse_total;
    Alcotest.test_case "protocol decode and defaults" `Quick protocol_decode;
    Alcotest.test_case "protocol work keys" `Quick protocol_work_key;
    Alcotest.test_case "protocol: malformed datarate is a bad request" `Quick
      protocol_datarate;
    Alcotest.test_case "render: engine equals model" `Quick
      render_engine_identity;
    Alcotest.test_case "coalesce: deterministic single flight" `Quick
      coalesce_single_flight;
    Alcotest.test_case "coalesce: errors propagate to all" `Quick
      coalesce_error_propagation;
    Alcotest.test_case "server: ping, eval bit-identity, stats" `Quick
      server_basics;
    Alcotest.test_case "server: hostile frames" `Quick server_bad_frames;
    Alcotest.test_case "server: a non-finite report is refused" `Quick
      server_non_finite;
    Alcotest.test_case "server: split and pipelined frames" `Quick
      server_split_frames;
    Alcotest.test_case "server: half-closed socket" `Quick server_half_close;
    Alcotest.test_case "server: coalescing is counter-verified" `Quick
      (server_coalescing ~jobs:1);
    Alcotest.test_case "server jobs 2: coalescing" `Quick
      (server_coalescing ~jobs:2);
    Alcotest.test_case "server: a CPU-bound flight coalesces" `Quick
      server_cpu_bound_flight;
    Alcotest.test_case "server: injected faults are isolated" `Quick
      server_fault_isolation;
    Alcotest.test_case "server: deadline classification" `Quick server_deadline;
    Alcotest.test_case "server: admission control" `Quick
      (server_overload ~jobs:1);
    Alcotest.test_case "server jobs 2: admission control" `Quick
      (server_overload ~jobs:2);
    Alcotest.test_case "server: sweep streams parts" `Quick
      server_sweep_streams;
    Alcotest.test_case "server: a client that stops reading stalls no other"
      `Quick server_stuck_reader;
    Alcotest.test_case "server: drain ends despite a stuck reader" `Quick
      server_drain_stuck_reader;
    Alcotest.test_case "server: drain aborts with one terminal" `Quick
      (server_drain_aborts ~jobs:1);
    Alcotest.test_case "server jobs 2: drain aborts" `Quick
      (server_drain_aborts ~jobs:2);
    Alcotest.test_case "server: drain flushes the store" `Quick
      server_drain_flushes_store;
  ]
