(** The machine-readable certificate `vdram check --certify` emits:
    guaranteed bounds, monotonicity directions, and whole-sweep
    legality, serialized as one JSON object.

    The JSON is a contract for downstream tooling — notably the
    future `vdram search` pruner, which reads the [monotonicity]
    entries to discard dominated candidates.  Floats are printed with
    [%.17g] so parsed values round-trip to the exact doubles
    certified. *)

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
(** Result of a concrete sampling cross-check, when one was run. *)

type t = {
  config : Vdram_core.Config.t;
  pattern : Vdram_core.Pattern.t;
  box : Abox.t;
  splits : int;
  bounds : Bounds.t;
  nominal : Vdram_core.Report.t;
  monotonicity : Monotone.certificate list;
  sweep : sweep option;
  samples : samples option;
}

val v :
  ?sweep:sweep ->
  ?samples:samples ->
  config:Vdram_core.Config.t ->
  pattern:Vdram_core.Pattern.t ->
  box:Abox.t ->
  splits:int ->
  bounds:Bounds.t ->
  monotonicity:Monotone.certificate list ->
  unit ->
  t
(** Assemble a certificate; the nominal report is evaluated here. *)

val to_json : t -> string
(** The certificate as one JSON object on one line, printed by
    {!Vdram_json.Json.to_string}. *)
