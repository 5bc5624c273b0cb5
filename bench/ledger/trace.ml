(* Spans recorded on the bench's side of each layer boundary: around
   every timed op, around each public call the probe makes, and (for
   serve) the server-side part of a request.  Spans of one op share its
   op id; a child names its parent.  They stay in memory and are written
   once, as Chrome trace-event JSON, which Perfetto opens.

   A layer's self time is its span's duration minus the durations of its
   direct children. *)

module Json = Vdram_serve.Json

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  op : int;
  lane : int;  (** trace-viewer thread: the client connection, else 0 *)
  t0 : float;
  t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 0

(* Whether [span] records.  The traced run toggles it per block of ops
   so that untraced blocks measure the tracer's own cost. *)
let enabled = ref false

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let push ?(parent = -1) ?(lane = 0) id ~name ~op t0 t1 =
  spans := { id; parent; name; op; lane; t0; t1 } :: !spans

(* Record a span measured elsewhere (whatever [enabled] says: the caller
   has decided to trace it); returns its id. *)
let add ?parent ?lane ~name ~op t0 t1 =
  let id = fresh () in
  push ?parent ?lane id ~name ~op t0 t1;
  id

(* Run [f] inside a span when [enabled]; [f] receives the span id for
   its children. *)
let span ?parent ?lane ~name ~op f =
  if not !enabled then f (-1)
  else begin
    let id = fresh () in
    let t0 = Clock.now () in
    let r = f id in
    push ?parent ?lane id ~name ~op t0 (Clock.now ());
    r
  end

let dur s = s.t1 -. s.t0

let children () =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add tbl s.parent s)
    !spans;
  tbl

let self_times () =
  let kids = children () in
  List.map
    (fun s ->
      let c = Hashtbl.find_all kids s.id in
      (s, dur s -. List.fold_left (fun a k -> a +. dur k) 0.0 c))
    !spans

(* Median self time of every span named [name], in seconds (nan when
   there is none). *)
let median_self name =
  self_times ()
  |> List.filter_map (fun (s, self) -> if s.name = name then Some self else None)
  |> Array.of_list |> Stats.median

(* The accounting invariant: a span's children lie inside it and do not
   overlap, so child durations plus the parent's self time sum to its
   wall time.  Returns the largest relative excess of summed child time
   over parent wall time (0 when the invariant holds exactly). *)
let accounting_excess () =
  let kids = children () in
  List.fold_left
    (fun worst s ->
      match Hashtbl.find_all kids s.id with
      | [] -> worst
      | c ->
        let sum = List.fold_left (fun a k -> a +. dur k) 0.0 c in
        let outside =
          List.exists (fun k -> k.t0 < s.t0 -. 1e-6 || k.t1 > s.t1 +. 1e-6) c
        in
        let excess = if outside then 1.0 else (sum -. dur s) /. Float.max (dur s) 1e-9 in
        Float.max worst excess)
    0.0 !spans

let write path =
  let origin =
    List.fold_left (fun a s -> Float.min a s.t0) Float.infinity !spans
  in
  let us x = Json.Num (Float.round (x *. 1e9) /. 1e3) in
  let self = Hashtbl.create 1024 in
  List.iter (fun (s, t) -> Hashtbl.replace self s.id t) (self_times ());
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (List.hd (String.split_on_char '.' s.name)));
        ("ph", Json.Str "X");
        ("ts", us (s.t0 -. origin));
        ("dur", us (dur s));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (float_of_int s.lane));
        ( "args",
          Json.Obj
            [
              ("op", Json.Num (float_of_int s.op));
              ("self_us", us (Hashtbl.find self s.id));
            ] );
      ]
  in
  let events = List.rev_map event !spans in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.Str "ms") ]));
      output_char oc '\n')
