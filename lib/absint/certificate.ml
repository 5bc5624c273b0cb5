(* The machine-readable certificate `vdram check --certify` emits.

   The JSON is a contract: a future `vdram search` pruner reads the
   monotonicity entries to discard dominated candidates, and
   downstream tooling reads the bound entries as guaranteed
   envelopes.  Floats are printed with %.17g so the parsed values
   round-trip to the exact doubles certified. *)

module I = Vdram_units.Interval
module Config = Vdram_core.Config
module Node = Vdram_tech.Node
module Model = Vdram_core.Model
module Report = Vdram_core.Report
module Operation = Vdram_core.Operation
module Pattern = Vdram_core.Pattern
module Lenses = Vdram_analysis.Lenses

type sweep_entry = {
  node : string;
  legal : bool;
  violations : string list;  (** human-readable, empty when legal *)
}

type sweep = {
  authored_node : string;
  authored_legal : bool;
  entries : sweep_entry list;
}

type samples = { count : int; contained : bool }

type t = {
  config : Config.t;
  pattern : Pattern.t;
  box : Abox.t;
  splits : int;
  bounds : Bounds.t;
  nominal : Report.t;
  monotonicity : Monotone.certificate list;
  sweep : sweep option;
  samples : samples option;
}

let v ?sweep ?samples ~config ~pattern ~box ~splits ~bounds ~monotonicity ()
    =
  {
    config;
    pattern;
    box;
    splits;
    bounds;
    nominal = Model.pattern_power config pattern;
    monotonicity;
    sweep;
    samples;
  }

(* ----- JSON -------------------------------------------------------- *)

module Json = Vdram_json.Json

let num x =
  if Float.is_finite x then Json.Lit (Printf.sprintf "%.17g" x) else Json.Null

let int n = Json.Num (float n)
let option f = function Some x -> f x | None -> Json.Null

let interval ?nominal (i : I.t) =
  Json.Obj
    ([ ("lo", num i.I.lo); ("hi", num i.I.hi) ]
    @ match nominal with Some n -> [ ("nominal", num n) ] | None -> [])

let axis (a : Abox.axis) =
  let scale : I.t = a.Abox.scale in
  Json.Obj
    [ ("lens", Json.Str a.Abox.lens.Lenses.name);
      ("group", Json.Str (Lenses.group_name a.Abox.lens.Lenses.group));
      ("scale_lo", num scale.I.lo); ("scale_hi", num scale.I.hi) ]

let monotone (m : Monotone.certificate) =
  let direction d = Json.Str (Monotone.direction_name d) in
  Json.Obj
    [ ("lens", Json.Str m.Monotone.lens);
      ("group", Json.Str (Lenses.group_name m.Monotone.group));
      ("metric", Json.Str (Monotone.metric_name m.Monotone.metric));
      ("scale_lo", num m.Monotone.lo); ("scale_hi", num m.Monotone.hi);
      ("direction", option direction m.Monotone.direction);
      ("cells", int m.Monotone.cells);
      ("resolution", num m.Monotone.resolution) ]

let sweep s =
  let entry e =
    Json.Obj
      [ ("node", Json.Str e.node); ("legal", Json.Bool e.legal);
        ("violations", Json.List (List.map (fun v -> Json.Str v) e.violations))
      ]
  in
  Json.Obj
    [ ("authored_node", Json.Str s.authored_node);
      ("authored_legal", Json.Bool s.authored_legal);
      ("generations", Json.List (List.map entry s.entries)) ]

let samples s =
  Json.Obj [ ("count", int s.count); ("contained", Json.Bool s.contained) ]

let to_json t =
  let b = t.bounds and n = t.nominal in
  let energy_per_bit =
    match (b.Bounds.energy_per_bit, n.Report.energy_per_bit) with
    | Some i, Some nominal -> interval ~nominal i
    | _ -> Json.Null
  in
  let op_energy (kind, i) = (Operation.name kind, interval i) in
  Json.to_string
    (Json.Obj
       [ ("certificate_version", int 1);
         ("model_version", Json.Str Model.version);
         ( "config",
           Json.Obj
             [ ("name", Json.Str t.config.Config.name);
               ("node", Json.Str (Node.name t.config.Config.node)) ] );
         ("pattern", Json.Str t.pattern.Pattern.name);
         ("axes", Json.List (List.map axis (Abox.axes t.box)));
         ("splits", int t.splits); ("pieces", int b.Bounds.pieces);
         ( "bounds",
           Json.Obj
             [ ("power", interval ~nominal:n.Report.power b.Bounds.power);
               ( "current",
                 interval ~nominal:n.Report.current b.Bounds.current );
               ( "background",
                 interval ~nominal:n.Report.background_power
                   b.Bounds.background );
               ("energy_per_bit", energy_per_bit);
               ("op_energy", Json.Obj (List.map op_energy b.Bounds.op_energy))
             ] );
         ("monotonicity", Json.List (List.map monotone t.monotonicity));
         ("sweep_legality", option sweep t.sweep);
         ("samples", option samples t.samples) ])
