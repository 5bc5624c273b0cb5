(* Per-operation charge determination. *)

module C = Vdram_circuits.Contribution

type kind = Activate | Precharge | Read | Write | Nop

let all = [ Activate; Precharge; Read; Write; Nop ]

(* Dense operation table: the staged engine's extraction record and
   the mix kernel index flat arrays by this instead of walking assoc
   lists. *)
let n = 5

let index = function
  | Activate -> 0
  | Precharge -> 1
  | Read -> 2
  | Write -> 3
  | Nop -> 4

let of_index = function
  | 0 -> Activate
  | 1 -> Precharge
  | 2 -> Read
  | 3 -> Write
  | 4 -> Nop
  | i -> invalid_arg (Printf.sprintf "Operation.of_index: %d" i)

let name = function
  | Activate -> "activate"
  | Precharge -> "precharge"
  | Read -> "read"
  | Write -> "write"
  | Nop -> "nop"

let to_trigger_op = function
  | Activate -> Some `Activate
  | Precharge -> Some `Precharge
  | Read -> Some `Read
  | Write -> Some `Write
  | Nop -> None

(* [activated_bits] lets a caller that has already resolved the
   floorplan (the staged engine's geometry stage) feed the page size in
   instead of re-deriving it from the configuration.

   Each operation's contribution list is a concatenation of per-group
   chunks.  The chunk plan of each kind ([Plan]) is static and built
   once at module initialization as closures over a per-configuration
   [ctx]: [segments] wraps them as thunks for callers that force every
   chunk, while delta-extraction reads {!plan} and calls {!chunk} for
   just the dirtied positions, paying neither list nor closure
   construction per operation.  In this float compilation of [Plan]
   every reader is the record itself. *)
type ctx = Plan.ctx

let ctx ?activated_bits ?geometry (cfg : Config.t) =
  {
    Plan.cfg;
    c = cfg;
    p = cfg.Config.tech;
    d = cfg.Config.domains;
    blk = (fun _ b -> b);
    g =
      (match geometry with
      | Some g -> g
      | None -> Config.geometry cfg);
    page =
      (match activated_bits with
      | Some bits -> bits
      | None -> Config.activated_bits cfg);
    bits = Spec.bits_per_column_command cfg.Config.spec;
    logic = [||];
  }

let plans = Array.init n (fun i -> Plan.plan_of (to_trigger_op (of_index i)))
let plan_groups = Array.map (Array.map fst) plans
let plan_indices_tbl = Array.map (Array.map C.group_index) plan_groups

let plan_masks =
  Array.map
    (Array.fold_left (fun m g -> m lor (1 lsl C.group_index g)) 0)
    plan_groups

(* Shared static arrays: callers must treat them as read-only. *)
let plan kind = plan_groups.(index kind)
let plan_indices kind = plan_indices_tbl.(index kind)
let plan_mask kind = plan_masks.(index kind)
let chunk x kind j = (snd plans.(index kind).(j)) x

let segments ?activated_bits (cfg : Config.t) kind :
    (C.group * (unit -> C.t list)) list =
  let x = ctx ?activated_bits cfg in
  Array.to_list
    (Array.map (fun (g, f) -> (g, fun () -> f x)) plans.(index kind))

let contributions ?activated_bits (cfg : Config.t) kind =
  List.concat_map
    (fun (_, chunk) -> chunk ())
    (segments ?activated_bits cfg kind)

let energy_internal cfg kind =
  List.fold_left
    (fun acc (c : C.t) -> acc +. c.C.energy)
    0.0 (contributions cfg kind)

let energy cfg kind =
  C.total_at_vdd cfg.Config.domains (contributions cfg kind)
