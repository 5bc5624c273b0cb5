(* Elaboration: AST -> Config.t (+ optional Pattern).

   The elaborator accumulates every problem it finds as a spanned
   diagnostic instead of stopping at the first one: each failed
   lookup or malformed value emits its diagnostic and falls back to
   the roadmap default (or skips the offending segment/block), so one
   run reports the full list the way the dimensional pass does.  The
   elaborated configuration is only meaningful when no error
   diagnostics were emitted. *)

module Node = Vdram_tech.Node
module Scaling = Vdram_tech.Scaling
module Roadmap = Vdram_tech.Roadmap
module Params = Vdram_tech.Params
module Domains = Vdram_circuits.Domains
module Bus = Vdram_circuits.Bus
module Logic_block = Vdram_circuits.Logic_block
module Floorplan = Vdram_floorplan.Floorplan
module Array_geometry = Vdram_floorplan.Array_geometry
module Config = Vdram_core.Config
module Spec = Vdram_core.Spec
module Pattern = Vdram_core.Pattern
module Q = Vdram_units.Quantity
module Span = Vdram_diagnostics.Span
module Diagnostic = Vdram_diagnostics.Diagnostic
module Fix = Vdram_diagnostics.Fix
module Suggest = Vdram_diagnostics.Suggest

type t = {
  config : Config.t;
  pattern : Pattern.t option;
}

type ctx = { mutable diags : Diagnostic.t list }

let emit ctx d = ctx.diags <- d :: ctx.diags

let err ctx ?(code = "V0200") ?span ?notes ?help ?fixes line fmt =
  Printf.ksprintf
    (fun message ->
      let span = match span with Some s -> s | None -> Span.of_line line in
      emit ctx
        (Diagnostic.v ~span ?notes ?help ?fixes ~severity:Diagnostic.Error
           ~code message))
    fmt

(* Emit pointing at a statement's keyword token. *)
let err_kw ctx ~code ?notes ?help ?fixes (stmt : Ast.stmt) fmt =
  err ctx ~code ~span:stmt.Ast.keyword_span ?notes ?help ?fixes stmt.Ast.line
    fmt

(* Emit pointing at a statement's [key=value] token. *)
let err_arg ctx ~code ?notes ?help ?fixes (stmt : Ast.stmt) key fmt =
  let span =
    match Ast.arg_span stmt key with
    | Some s -> s
    | None -> stmt.Ast.keyword_span
  in
  err ctx ~code ~span ?notes ?help ?fixes stmt.Ast.line fmt

let literal_code = function
  | Q.Malformed -> "V0102"
  | Q.Unknown_unit -> "V0103"
  | Q.Mismatch _ -> "V0101"
  | Q.Non_finite -> "V0104"

let lower = String.lowercase_ascii

(* Parse an argument of a statement with an expected dimension.
   [None] both when the argument is absent and when its literal is bad
   (the diagnostic has been emitted) — callers fall back to defaults
   either way. *)
let quantity ctx (stmt : Ast.stmt) key dim =
  match Ast.arg stmt key with
  | None -> None
  | Some raw ->
    (match Q.classify dim raw with
     | Ok v -> Some v
     | Error (kind, msg) ->
       err_arg ctx ~code:(literal_code kind) stmt key "%s: %s" key msg;
       None)

(* [v], the value of [key], as a whole number of at least [lo] (0 or
   1).  A value past the int range is refused too: [int_of_float] would
   wrap it. *)
let whole_from lo ctx (stmt : Ast.stmt) key v =
  if Float.is_integer v && v >= float_of_int lo && v < 0x1p62 then
    Some (int_of_float v)
  else begin
    err_arg ctx ~code:"V0204" stmt key "%s must be %s" key
      (if v >= 0x1p62 then "an integer below 2^62"
       else if lo = 0 then "a non-negative integer"
       else "a positive integer");
    None
  end

let integer_from lo ctx (stmt : Ast.stmt) key =
  Option.bind (quantity ctx stmt key Q.Scalar) (whole_from lo ctx stmt key)

let integer = integer_from 0

(* Collect all statements of the sections with a name. *)
let stmts_of ast name =
  List.concat_map (fun s -> s.Ast.stmts) (Ast.find_sections ast name)

let stmt_with ast section keyword =
  List.find_opt
    (fun (s : Ast.stmt) -> lower s.Ast.keyword = lower keyword)
    (stmts_of ast section)

(* A fix replacing just the key part of a [key=value] token. *)
let key_fix (stmt : Ast.stmt) key replacement =
  match Ast.arg_span stmt key with
  | Some s when s.Span.col_start >= 1 ->
    let span =
      { s with Span.col_end = s.Span.col_start + String.length key }
    in
    [ Fix.v ~span replacement ]
  | _ -> []

(* Technology keys in Params.fields order. *)
let technology_keys =
  [ "toxlogic"; "toxhv"; "toxcell"; "lminlogic"; "cjlogic"; "lminhv";
    "cjhv"; "lcell"; "wcell"; "cbitline"; "ccell"; "blwlcoupling";
    "cwiremwl"; "mwlpredecode"; "wmwldecn"; "wmwldecp"; "mwldecactivity";
    "wwlctlloadn"; "wwlctlloadp"; "wlwdn"; "wlwdp"; "wlwdrestore";
    "cwirelwl"; "wsan"; "lsan"; "wsap"; "lsap"; "wsaeq"; "lsaeq";
    "wsabitswitch"; "lsabitswitch"; "wsamux"; "lsamux"; "wsanset";
    "lsanset"; "wsapset"; "lsapset"; "cwiresignal" ]
  @ [ "bitspercsl" ]

let technology_dims =
  let l = Q.Length
  and cl = Q.Cap_per_length
  and c = Q.Capacitance
  and fr = Q.Fraction
  and s = Q.Scalar in
  [ l; l; l; l; cl; l; cl; l; l; c; c; fr; cl; s; l; l; fr; l; l; l; l; l;
    cl; l; l; l; l; l; l; l; l; l; l; l; l; l; l; cl ]

let apply_technology ctx ast tech =
  let entries = List.combine technology_keys (technology_dims @ [ Q.Scalar ]) in
  let float_fields = Params.fields in
  List.fold_left
    (fun tech (stmt : Ast.stmt) ->
      List.fold_left
        (fun tech (orig_key, value) ->
          let key = lower orig_key in
          match List.assoc_opt key entries with
          | None ->
            let help, fixes =
              match Suggest.nearest ~candidates:technology_keys key with
              | Some best ->
                ( Some (Printf.sprintf "did you mean %S?" best),
                  key_fix stmt orig_key best )
              | None -> (None, [])
            in
            err_arg ctx ~code:"V0201" ?help ~fixes stmt orig_key
              "unknown technology parameter %S" key;
            tech
          | Some dim ->
            if key = "bitspercsl" then begin
              match Q.classify Q.Scalar value with
              | Ok v ->
                (match whole_from 1 ctx stmt orig_key v with
                 | Some n -> { tech with Params.bits_per_csl = n }
                 | None -> tech)
              | Error (kind, msg) ->
                err_arg ctx ~code:(literal_code kind) stmt orig_key "%s: %s"
                  key msg;
                tech
            end
            else begin
              match Q.classify dim value with
              | Error (kind, msg) ->
                err_arg ctx ~code:(literal_code kind) stmt orig_key "%s: %s"
                  key msg;
                tech
              | Ok v ->
                (* Position of the key gives the field setter. *)
                let rec nth_setter keys fields =
                  match (keys, fields) with
                  | k :: _, (_, _, set) :: _ when k = key -> Some set
                  | _ :: ks, _ :: fs -> nth_setter ks fs
                  | _ -> None
                in
                (match nth_setter technology_keys float_fields with
                 | Some set -> set tech v
                 | None ->
                   err ctx ~code:"V0201" stmt.Ast.line
                     "internal: no setter for %s" key;
                   tech)
            end)
        tech stmt.Ast.args)
    tech
    (stmts_of ast "Technology")

(* Coordinates "i_j" used by the signaling floorplan. *)
let coord ctx (stmt : Ast.stmt) ~key raw =
  match String.split_on_char '_' raw with
  | [ i; j ] ->
    (match (int_of_string_opt i, int_of_string_opt j) with
     | Some i, Some j -> Some (i, j)
     | _ ->
       err_arg ctx ~code:"V0204" stmt key "malformed coordinate %S" raw;
       None)
  | _ ->
    err_arg ctx ~code:"V0204" stmt key "malformed coordinate %S (expected i_j)"
      raw;
    None

(* A coordinate checked against the declared grid (V0701). *)
let grid_coord ctx floorplan (stmt : Ast.stmt) ~key raw =
  match coord ctx stmt ~key raw with
  | None -> None
  | Some (i, j) ->
    let h = Array.length floorplan.Floorplan.horizontal in
    let v = Array.length floorplan.Floorplan.vertical in
    if i < 0 || i >= h || j < 0 || j >= v then begin
      err_arg ctx ~code:"V0701" stmt key
        ~notes:
          [ Printf.sprintf
              "the declared floorplan grid is %d x %d blocks (indices 0..%d \
               horizontally, 0..%d vertically)"
              h v (h - 1) (v - 1) ]
        "coordinate %d_%d is outside the declared floorplan grid" i j;
      None
    end
    else Some (i, j)

let bus_roles =
  [ ("writedata", Bus.Write_data); ("readdata", Bus.Read_data);
    ("rowaddress", Bus.Row_address); ("columnaddress", Bus.Column_address);
    ("coladdress", Bus.Column_address); ("bankaddress", Bus.Bank_address);
    ("command", Bus.Command); ("clock", Bus.Clock) ]

let bus_keywords =
  [ "WriteData"; "ReadData"; "RowAddress"; "ColumnAddress"; "BankAddress";
    "Command"; "Clock" ]

let segment_of_stmt ctx floorplan (stmt : Ast.stmt) =
  let length =
    match Ast.arg stmt "length" with
    | Some _ -> quantity ctx stmt "length" Q.Length
    | None ->
      (match (Ast.arg stmt "start", Ast.arg stmt "end") with
       | Some s, Some e ->
         (match
            ( grid_coord ctx floorplan stmt ~key:"start" s,
              grid_coord ctx floorplan stmt ~key:"end" e )
          with
          | Some a, Some b -> Some (Floorplan.route_length floorplan a b)
          | _ -> None)
       | _ ->
         (match Ast.arg stmt "inside" with
          | Some c ->
            let frac =
              Option.value ~default:1.0
                (quantity ctx stmt "fraction" Q.Fraction)
            in
            let dir =
              match Option.map lower (Ast.arg stmt "dir") with
              | Some "h" | None -> `H
              | Some "v" -> `V
              | Some d ->
                err_arg ctx ~code:"V0204" stmt "dir" "bad dir %S (h or v)" d;
                `H
            in
            (match grid_coord ctx floorplan stmt ~key:"inside" c with
             | Some ij ->
               Some (Floorplan.inside_length floorplan ij ~frac ~dir)
             | None -> None)
          | None ->
            err_kw ctx ~code:"V0205" stmt
              "segment needs length=, start=/end= or inside=";
            None))
  in
  match length with
  | None -> None
  | Some length ->
    let buffer =
      match (Ast.arg stmt "NchW", Ast.arg stmt "PchW") with
      | None, None -> None
      | Some _, Some _ ->
        (match
           (quantity ctx stmt "NchW" Q.Length, quantity ctx stmt "PchW" Q.Length)
         with
         | Some n, Some p -> Some (n, p)
         | _ -> None)
      | _ ->
        err_kw ctx ~code:"V0205" stmt "buffer needs both NchW= and PchW=";
        None
    in
    let mux =
      match Ast.arg stmt "mux" with
      | None -> None
      | Some raw ->
        (match String.split_on_char ':' raw with
         | [ "1"; n ] ->
           (match int_of_string_opt n with
            | Some n when n > 0 -> Some n
            | _ ->
              err_arg ctx ~code:"V0204" stmt "mux" "bad mux ratio %S" raw;
              None)
         | _ ->
           err_arg ctx ~code:"V0204" stmt "mux"
             "bad mux ratio %S (expected 1:n)" raw;
           None)
    in
    let toggle =
      Option.value ~default:1.0 (quantity ctx stmt "toggle" Q.Fraction)
    in
    Some
      (Bus.segment ?buffer ?mux ~toggle
         ~name:(Printf.sprintf "%s line %d" stmt.Ast.keyword stmt.Ast.line)
         ~length ())

let buses_of_signaling ctx ast floorplan ~(spec : Spec.t) ~default =
  let stmts = stmts_of ast "FloorplanSignaling" in
  if stmts = [] then default
  else begin
    (* Group segments per bus keyword, keeping statement order. *)
    let order = ref [] in
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (stmt : Ast.stmt) ->
        let key = lower stmt.Ast.keyword in
        match List.assoc_opt key bus_roles with
        | None ->
          let help, fixes =
            match Suggest.nearest ~candidates:bus_keywords key with
            | Some best ->
              ( Some (Printf.sprintf "did you mean %S?" best),
                [ Fix.v ~span:stmt.Ast.keyword_span best ] )
            | None -> (None, [])
          in
          err_kw ctx ~code:"V0202" ?help ~fixes stmt "unknown bus %S"
            stmt.Ast.keyword
        | Some role ->
          if not (Hashtbl.mem tbl key) then begin
            order := key :: !order;
            Hashtbl.add tbl key (role, ref None, ref [])
          end;
          let _, wires, segs = Hashtbl.find tbl key in
          (match integer ctx stmt "wires" with
           | Some w -> wires := Some w
           | None -> ());
          (match segment_of_stmt ctx floorplan stmt with
           | Some seg -> segs := seg :: !segs
           | None -> ()))
      stmts;
    let default_wires = function
      | Bus.Write_data | Bus.Read_data -> spec.Spec.io_width
      | Bus.Row_address -> spec.Spec.row_bits
      | Bus.Column_address -> spec.Spec.col_bits
      | Bus.Bank_address -> max 1 spec.Spec.bank_bits
      | Bus.Command -> spec.Spec.misc_control
      | Bus.Clock -> spec.Spec.clock_wires
    in
    let buses =
      List.rev !order
      |> List.filter_map (fun key ->
             let role, wires, segs = Hashtbl.find tbl key in
             match List.rev !segs with
             | [] -> None  (* every segment of this bus was invalid *)
             | segs ->
               Some
                 (Bus.v ~name:key ~role
                    ~wires:
                      (Option.value ~default:(default_wires role) !wires)
                    segs))
    in
    if buses = [] then default else buses
  end

let logic_of_section ctx ast ~default =
  let stmts = stmts_of ast "LogicBlocks" in
  if stmts = [] then default
  else
    let blocks =
      List.filter_map
        (fun (stmt : Ast.stmt) ->
          if lower stmt.Ast.keyword <> "block" then begin
            err_kw ctx ~code:"V0204" stmt
              "expected Block statement in LogicBlocks";
            None
          end
          else
            let name =
              match Ast.arg stmt "name" with
              | Some n -> Some n
              | None ->
                err_kw ctx ~code:"V0205" stmt "Block needs name=";
                None
            in
            let gates =
              match Ast.arg stmt "gates" with
              | None ->
                err_kw ctx ~code:"V0205" stmt "Block needs gates=";
                None
              | Some _ ->
                (match quantity ctx stmt "gates" Q.Scalar with
                 | Some g when g < 0.0 ->
                   err_arg ctx ~code:"V0204" stmt "gates"
                     "gates must not be negative, got %g" g;
                   None
                 | g -> g)
            in
            let trigger =
              match Option.map lower (Ast.arg stmt "trigger") with
              | None | Some "always" -> Some Logic_block.Always
              | Some ops ->
                let op_of = function
                  | "act" | "activate" -> Some `Activate
                  | "pre" | "precharge" -> Some `Precharge
                  | "rd" | "read" -> Some `Read
                  | "wrt" | "wr" | "write" -> Some `Write
                  | o ->
                    err_arg ctx ~code:"V0204" stmt "trigger"
                      "bad trigger op %S" o;
                    None
                in
                let ops =
                  List.filter_map op_of (String.split_on_char ',' ops)
                in
                if ops = [] then None
                else Some (Logic_block.On_operation ops)
            in
            match (name, gates, trigger) with
            | Some name, Some gates, Some trigger ->
              Some
                (Logic_block.v ~name ~gates ~trigger
                   ?w_nmos:(quantity ctx stmt "wnmos" Q.Length)
                   ?w_pmos:(quantity ctx stmt "wpmos" Q.Length)
                   ?transistors_per_gate:
                     (quantity ctx stmt "transistors" Q.Scalar)
                   ?layout_density:(quantity ctx stmt "layout" Q.Fraction)
                   ?wiring_density:(quantity ctx stmt "wiring" Q.Fraction)
                   ?toggle:(quantity ctx stmt "toggle" Q.Fraction)
                   ())
            | _ -> None)
        stmts
    in
    if blocks = [] then default else blocks

let axis_blocks ctx ast ~axis ~geometry =
  let list_kw, size_kw =
    match axis with
    | `H -> ("horizontal", "sizehorizontal")
    | `V -> ("vertical", "sizevertical")
  in
  let stmts = stmts_of ast "FloorplanPhysical" in
  let blocks_stmt =
    List.find_opt (fun (s : Ast.stmt) -> lower s.Ast.keyword = list_kw) stmts
  in
  match blocks_stmt with
  | None -> None
  | Some stmt ->
    let array_size =
      match axis with
      | `H -> Array_geometry.block_width geometry
      | `V -> Array_geometry.block_height geometry
    in
    (* A size that is not above zero is reported at its key; the
       array block's size stands in. *)
    let sizes =
      List.concat_map
        (fun (s : Ast.stmt) ->
          if lower s.Ast.keyword = size_kw then
            List.filter_map
              (fun (k, v) ->
                match Q.classify Q.Length v with
                | Ok len when not (len > 0.0) ->
                  err_arg ctx ~code:"V0204" s k "%s must be above 0, got %g m"
                    k len;
                  Some (k, array_size)
                | Ok len -> Some (k, len)
                | Error (kind, msg) ->
                  err_arg ctx ~code:(literal_code kind) s k "%s: %s" k msg;
                  None)
              s.Ast.args
          else [])
        stmts
    in
    let block name span =
      let kind =
        match (if name = "" then ' ' else Char.uppercase_ascii name.[0]) with
        | 'A' -> Floorplan.Array_block
        | 'R' -> Floorplan.Row_logic
        | 'C' -> Floorplan.Column_logic
        | 'P' -> Floorplan.Center_stripe
        | _ -> Floorplan.Other name
      in
      let size =
        match List.assoc_opt name sizes with
        | Some s -> s
        | None ->
          if kind = Floorplan.Array_block then array_size
          else begin
            err ctx ~code:"V0205" ~span stmt.Ast.line
              "no size given for block %S" name;
            array_size
          end
      in
      { Floorplan.name; kind; size }
    in
    Some (List.map2 block stmt.Ast.positional stmt.Ast.positional_spans)

(* Raised once the V0204 for an input no configuration can be derived
   from has been emitted. *)
exception Refused

let elaborate ast =
  let ctx = { diags = [] } in
  let result =
    try
      (* Device. *)
      let part = stmt_with ast "Device" "Part" in
      if part = None then
        err ctx ~code:"V0203" 1
          "missing Device section with a Part statement";
      let node =
        match part with
        | None -> Node.N65
        | Some part ->
          (match Ast.arg part "node" with
           | None ->
             err_kw ctx ~code:"V0205" part "Part needs node=<feature size>";
             Node.N65
           | Some _ ->
             (match quantity ctx part "node" Q.Length with
              | Some f -> Node.of_nm (f *. 1e9)
              | None -> Node.N65))
      in
      let name =
        Option.value ~default:"unnamed"
          (Option.bind part (fun p -> Ast.arg p "name"))
      in
      let g = Roadmap.generation node in
      (* Specification. *)
      let io = stmt_with ast "Specification" "IO" in
      let control = stmt_with ast "Specification" "Control" in
      let clock = stmt_with ast "Specification" "Clock" in
      let density = stmt_with ast "Specification" "Density" in
      let banks_stmt = stmt_with ast "Specification" "Banks" in
      let burst = stmt_with ast "Specification" "Burst" in
      let timing = stmt_with ast "Specification" "Timing" in
      let interface = stmt_with ast "Specification" "Interface" in
      let opt stmt key dim = Option.bind stmt (fun s -> quantity ctx s key dim) in
      let opt_int stmt key = Option.bind stmt (fun s -> integer ctx s key) in
      (* Counts that size a bus (a bus needs a wire) or that the
         specification divides by: at least one. *)
      let opt_count stmt key =
        Option.bind stmt (fun s -> integer_from 1 ctx s key)
      in
      (* A V0204 at [key] of [stmt], or at line 1 if it is absent. *)
      let refuse ?(code = "V0204") stmt key fmt =
        Printf.ksprintf
          (fun msg ->
            match stmt with
            | Some s -> err_arg ctx ~code s key "%s" msg
            | None -> err ctx ~code 1 "%s" msg)
          fmt
      in
      (* A rule over several keys is refused at the first of [keys] the
         description sets, and ends elaboration: nothing can be derived
         from the inputs it refuses. *)
      let refuse_first keys msg =
        let set (stmt, key) =
          Option.is_some (Option.bind stmt (fun s -> Ast.arg s key))
        in
        (match List.find_opt set keys with
         | Some (stmt, key) -> refuse stmt key "%s" msg
         | None -> refuse None "" "%s" msg);
        raise Refused
      in
      let io_width =
        Option.value ~default:g.Roadmap.io_width
          (Option.bind io (fun s -> integer_from 1 ctx s "width"))
      in
      (* [key] of [stmt] when it keeps its rule; else the diagnostic at
         the key and [None], so that the default stands in. *)
      let checked ?code stmt key dim ok rule =
        match opt stmt key dim with
        | Some v when not (ok v) ->
          refuse ?code stmt key "%s must be %s, got %g" key rule v;
          None
        | v -> v
      in
      (* The rates and times the specification divides by. *)
      let positive stmt key dim = checked stmt key dim (fun v -> v > 0.0) "above 0" in
      let datarate =
        Option.value ~default:g.Roadmap.datarate (positive io "datarate" Q.Datarate)
      in
      let control_clock =
        match positive control "frequency" Q.Frequency with
        | Some f -> f
        | None ->
          (match Node.standard node with
           | Node.Sdr -> datarate
           | _ -> datarate /. 2.0)
      in
      let density_bits =
        match opt density "mbits" Q.Scalar with
        | Some m when m <= 0.0 ->
          refuse density "mbits" "Density mbits must be positive, got %g" m;
          g.Roadmap.density_bits
        | Some m -> m *. (2.0 ** 20.0)
        | None -> g.Roadmap.density_bits
      in
      let banks =
        Option.value ~default:g.Roadmap.banks (opt_count banks_stmt "number")
      in
      let prefetch =
        Option.value ~default:g.Roadmap.prefetch (opt_count burst "prefetch")
      in
      let burst_length =
        Option.value ~default:g.Roadmap.burst_length (opt_count burst "length")
      in
      let trc = Option.value ~default:g.Roadmap.trc (positive timing "trc" Q.Time) in
      let trcd =
        Option.value ~default:g.Roadmap.trcd (opt timing "trcd" Q.Time)
      in
      let trp = Option.value ~default:g.Roadmap.trp (opt timing "trp" Q.Time) in
      (* Cell array geometry. *)
      let cell_stmts =
        List.filter
          (fun (s : Ast.stmt) -> lower s.Ast.keyword = "cellarray")
          (stmts_of ast "FloorplanPhysical")
      in
      let cell key dim =
        List.fold_left
          (fun acc s ->
            match quantity ctx s key dim with Some v -> Some v | None -> acc)
          None cell_stmts
      in
      let cell_int lo key =
        List.fold_left
          (fun acc s ->
            match integer_from lo ctx s key with Some v -> Some v | None -> acc)
          None cell_stmts
      in
      let cell_key key =
        ( List.fold_left
            (fun acc s -> if Ast.arg s key = None then acc else Some s)
            None cell_stmts,
          key )
      in
      let f = Node.feature_size node in
      let page_bits =
        Option.value ~default:g.Roadmap.page_bits (cell_int 0 "page")
      in
      let style =
        match
          Option.map (fun (s, v) -> (s, lower v))
            (List.fold_left
               (fun acc (s : Ast.stmt) ->
                 match Ast.arg s "BLtype" with
                 | Some v -> Some (s, v)
                 | None -> acc)
               None cell_stmts)
        with
        | Some (_, "open") -> Array_geometry.Open
        | Some (_, "folded") -> Array_geometry.Folded
        | Some (s, other) ->
          err_arg ctx ~code:"V0204" s "BLtype"
            "bad BLtype %S (open or folded)" other;
          if g.Roadmap.cell_factor >= 8.0 then Array_geometry.Folded
          else Array_geometry.Open
        | None ->
          if g.Roadmap.cell_factor >= 8.0 then Array_geometry.Folded
          else Array_geometry.Open
      in
      let rows_per_bank =
        match Config.rows_per_bank ~density_bits ~io_width ~banks ~page_bits with
        | Ok rows -> rows
        | Error (`Io_width, msg) ->
          refuse_first [ (io, "width"); cell_key "page" ] msg
        | Error (`Density, msg) ->
          refuse_first
            [ (density, "mbits"); (banks_stmt, "number"); cell_key "page" ]
            msg
      in
      let bank_bits = density_bits /. float_of_int banks in
      let bits_per_bitline =
        Option.value ~default:g.Roadmap.bits_per_bitline
          (cell_int 0 "BitsPerBL")
      in
      let bits_per_lwl =
        Option.value ~default:g.Roadmap.bits_per_lwl (cell_int 1 "BitsPerLWL")
      in
      (match
         Array_geometry.subarrays ~bank_bits ~page_bits ~bits_per_bitline
           ~bits_per_lwl
       with
       | Ok _ -> ()
       | Error (`Page, msg) ->
         refuse_first [ cell_key "page"; cell_key "BitsPerLWL" ] msg
       | Error (`Bank, msg) ->
         refuse_first
           [ (banks_stmt, "number"); (density, "mbits"); cell_key "BitsPerBL";
             cell_key "page" ]
           msg);
      let geometry =
        Array_geometry.derive ~style
          ~csl_blocks:(Option.value ~default:1 (cell_int 0 "CSLblocks"))
          ~bank_bits ~page_bits ~bits_per_bitline ~bits_per_lwl
          ~wl_pitch:
            (Option.value
               ~default:(g.Roadmap.cell_factor /. 2.0 *. f)
               (cell "WLpitch" Q.Length))
          ~bl_pitch:
            (Option.value ~default:(2.0 *. f) (cell "BLpitch" Q.Length))
          ~sa_stripe:
            (Option.value ~default:(Scaling.sa_stripe_width node)
               (cell "SAstripe" Q.Length))
          ~lwd_stripe:
            (Option.value ~default:(Scaling.lwd_stripe_width node)
               (cell "LWDstripe" Q.Length))
          ()
      in
      (* Floorplan: explicit axes or the commodity default. *)
      let stripe_scale = Scaling.factor Scaling.F_stripe_width node in
      let commodity () =
        Floorplan.commodity ~geometry ~banks
          ~row_logic:(200e-6 *. stripe_scale)
          ~column_logic:(200e-6 *. stripe_scale)
          ~center_stripe:
            (530e-6 *. stripe_scale
            *. sqrt (Config.standard_complexity (Node.standard node)))
      in
      let floorplan =
        match
          ( axis_blocks ctx ast ~axis:`H ~geometry,
            axis_blocks ctx ast ~axis:`V ~geometry )
        with
        | Some h, Some v ->
          Floorplan.v ~horizontal:h ~vertical:v ~geometry ~banks
        | None, None -> commodity ()
        | _ ->
          err ctx ~code:"V0203" 1
            "floorplan needs both Horizontal and Vertical block lists";
          commodity ()
      in
      (* Spec record. *)
      let log2i n =
        let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
        go 0 n
      in
      let spec =
        Spec.v
          ?clock_wires:(opt_count clock "number")
          ?misc_control:(opt_count control "misc")
          ~io_width ~datarate ~control_clock
          ~bank_bits:
            (Option.value ~default:(log2i banks) (opt_int control "bankadd"))
          ~row_bits:
            (Option.value
               ~default:(log2i (int_of_float rows_per_bank))
               (opt_count control "rowadd"))
          ~col_bits:
            (Option.value
               ~default:(log2i (page_bits / io_width))
               (opt_count control "coladd"))
          ~prefetch ~burst_length ~banks ~density_bits ~trc ~trcd ~trp ()
      in
      (* Technology and voltages. *)
      let tech = apply_technology ctx ast (Scaling.params_at node) in
      let supply = stmt_with ast "Voltages" "Supply" in
      let eff = stmt_with ast "Voltages" "Efficiency" in
      let const = stmt_with ast "Voltages" "Constant" in
      let volts key default =
        Option.value ~default
          (checked supply key Q.Voltage Domains.supply_ok
             (Printf.sprintf "above 0 V and at most %g V" Domains.max_supply))
      in
      let efficiency key =
        checked ~code:"V0312" eff key Q.Fraction Domains.efficiency_ok
          "within (0, 1]"
      in
      let domains =
        Domains.v ?eff_int:(efficiency "int") ?eff_bl:(efficiency "bl")
          ?eff_pp:(efficiency "pp")
          ?i_constant:(opt const "current" Q.Current)
          ~vdd:(volts "vdd" g.Roadmap.vdd) ~vint:(volts "vint" g.Roadmap.vint)
          ~vbl:(volts "vbl" g.Roadmap.vbl) ~vpp:(volts "vpp" g.Roadmap.vpp) ()
      in
      (* Buses and logic blocks. *)
      let default_buses = Config.default_buses ~floorplan ~node ~spec in
      let buses =
        buses_of_signaling ctx ast floorplan ~spec ~default:default_buses
      in
      let logic =
        logic_of_section ctx ast
          ~default:(Config.default_logic_blocks ~node ~spec)
      in
      let data_toggle =
        Option.value ~default:0.5 (opt interface "toggle" Q.Fraction)
      in
      let io_predriver_cap =
        Option.value
          ~default:(5.0e-12 *. Scaling.factor Scaling.F_wire_cap node)
          (opt interface "predriver" Q.Capacitance)
      in
      let io_receiver_cap =
        Option.value
          ~default:(2.5e-12 *. Scaling.factor Scaling.F_wire_cap node)
          (opt interface "receiver" Q.Capacitance)
      in
      let config =
        {
          Config.name;
          node;
          spec;
          domains;
          tech;
          floorplan;
          buses;
          logic;
          data_toggle;
          io_predriver_cap;
          io_receiver_cap;
          receiver_bias =
            Option.value
              ~default:
                (match Node.standard node with
                 | Node.Sdr | Node.Ddr -> 0.10e-3
                 | Node.Ddr2 -> 0.50e-3
                 | Node.Ddr3 -> 0.45e-3
                 | Node.Ddr4 -> 0.35e-3
                 | Node.Ddr5 -> 0.30e-3)
              (opt interface "bias" Q.Current);
          input_receivers =
            Option.value
              ~default:
                (spec.Spec.row_bits + spec.Spec.bank_bits
                + spec.Spec.misc_control + 2)
              (opt_int interface "receivers");
          activation_fraction =
            Option.value ~default:1.0 (opt interface "activation" Q.Fraction);
        }
      in
      (* Pattern: parse token by token so every bad command is
         reported at its own span. *)
      let pattern =
        match stmts_of ast "Pattern" with
        | [] -> None
        | stmt :: _ ->
          if lower stmt.Ast.keyword <> "pattern" then begin
            err_kw ctx ~code:"V0204" stmt "expected a Pattern loop= statement";
            None
          end
          else begin
            let slots =
              List.concat
                (List.map2
                   (fun tok span ->
                     match Pattern.parse ~name:"slot" tok with
                     | Ok p -> p.Pattern.slots
                     | Error msg ->
                       err ctx ~code:"V0206" ~span stmt.Ast.line "%s" msg;
                       [])
                   stmt.Ast.positional stmt.Ast.positional_spans)
            in
            match slots with
            | [] ->
              if stmt.Ast.positional = [] then
                err_kw ctx ~code:"V0206" stmt "empty pattern loop";
              None
            | slots -> Some (Pattern.v ~name:"described pattern" slots)
          end
      in
      Some { config; pattern }
    with
    | Refused -> None
    | Invalid_argument msg ->
      err ctx ~code:"V0200" ~span:Span.none 0 "%s" msg;
      None
  in
  (result, List.rev ctx.diags)

(* ----- fail-fast compatibility ------------------------------------- *)

let to_result (cfg, diags) =
  match List.find_opt Diagnostic.is_error diags with
  | Some d ->
    Error
      {
        Parser.line = d.Diagnostic.span.Span.line;
        message = d.Diagnostic.message;
        code = d.Diagnostic.code;
        span = d.Diagnostic.span;
      }
  | None ->
    (match cfg with
     | Some t -> Ok t
     | None ->
       Error
         {
           Parser.line = 0;
           message = "description cannot be elaborated";
           code = "V0200";
           span = Span.none;
         })

let load_string source =
  match Parser.parse source with
  | Error _ as e -> e
  | Ok ast -> to_result (elaborate ast)

let load_file path =
  match Parser.parse_file path with
  | Error _ as e -> e
  | Ok ast -> to_result (elaborate ast)
