(* Per-operation charge determination. *)

module C = Vdram_circuits.Contribution
module Bus = Vdram_circuits.Bus
module Logic_block = Vdram_circuits.Logic_block
module Sense_amp = Vdram_circuits.Sense_amp
module Wordline = Vdram_circuits.Wordline
module Column = Vdram_circuits.Column

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

let trigger_matches trigger kind =
  match (trigger, kind) with
  | Logic_block.Always, Nop -> true
  | Logic_block.Always, _ -> false
  | Logic_block.On_operation ops, k ->
    (match to_trigger_op k with
     | Some op -> List.mem op ops
     | None -> false)

let bus_event (cfg : Config.t) role label =
  let p = cfg.Config.tech and d = cfg.Config.domains in
  match Config.bus cfg role with
  | None -> []
  | Some b ->
    [ C.v ~label ~domain:Vdram_circuits.Domains.Vint
        ~energy:(Bus.energy_per_event p d b) ]

let data_transfer (cfg : Config.t) role label ~bits =
  let p = cfg.Config.tech and d = cfg.Config.domains in
  match Config.bus cfg role with
  | None -> []
  | Some b ->
    (* Internal data buses are precharged dual-rail: one event per
       transported bit independent of the data pattern. *)
    let per_bit = Bus.energy_per_bit p d b in
    [ C.v ~label ~domain:Vdram_circuits.Domains.Vint
        ~energy:(float_of_int bits *. per_bit) ]

(* Internal interface load per transported bit: output pre-drivers and
   level shifters for reads, receivers / latches / strobe distribution
   for writes.  The Vddq output stage itself is excluded, as in the
   paper. *)
let dq_interface (cfg : Config.t) ~bits ~write =
  let d = cfg.Config.domains in
  let cap =
    if write then cfg.Config.io_receiver_cap else cfg.Config.io_predriver_cap
  in
  let label = if write then "DQ receivers" else "DQ pre-drivers" in
  [
    C.v ~label ~domain:Vdram_circuits.Domains.Vdd
      ~energy:
        (cfg.Config.data_toggle
        *. C.events ~count:(float_of_int bits) ~cap
             ~voltage:d.Vdram_circuits.Domains.vdd);
  ]

(* [activated_bits] lets a caller that has already resolved the
   floorplan (the staged engine's geometry stage) feed the page size in
   instead of re-deriving it from the configuration.

   Each operation's contribution list is a concatenation of per-group
   chunks.  The chunk plan of each kind — which group produces which
   chunk, in concatenation order — is static (it never depends on
   configuration values) and built once at module initialization as
   closures over a per-configuration [ctx]: [segments] wraps them as
   thunks for callers that force every chunk, while delta-extraction
   reads {!plan} and calls {!chunk} for just the dirtied positions,
   paying neither list nor closure construction per operation. *)
type ctx = {
  c_cfg : Config.t;
  c_p : Vdram_tech.Params.t;
  c_d : Vdram_circuits.Domains.t;
  c_g : Vdram_floorplan.Array_geometry.t;
  c_page : int;
  c_bits : int;
  mutable c_logic : (Logic_block.trigger * C.t) array;
      (* per-block contribution, built lazily on the first logic chunk
         and shared by every operation kind's chunk of one [ctx]: a
         block's per-fire energy and label never depend on which
         operation triggered it, so the five logic chunks differ only
         in which table rows they select.  [[||]] means not yet built
         (a configuration with no logic blocks just rebuilds the empty
         table, which costs nothing). *)
}

let ctx ?activated_bits ?geometry (cfg : Config.t) =
  {
    c_cfg = cfg;
    c_p = cfg.Config.tech;
    c_d = cfg.Config.domains;
    c_g =
      (match geometry with
      | Some g -> g
      | None -> Config.geometry cfg);
    c_page =
      (match activated_bits with
      | Some bits -> bits
      | None -> Config.activated_bits cfg);
    c_bits = Spec.bits_per_column_command cfg.Config.spec;
    c_logic = [||];
  }

(* Label strings per logic-block list, memoized on physical identity:
   perturbed configurations of a sweep share the block list with their
   base, so every [ctx] of the sweep reuses the very same strings
   instead of re-concatenating them — and delta-extraction's
   label-lockstep check against the base's labels short-circuits on
   physical equality instead of comparing characters.  Without it (and
   the engine's pattern-fingerprint memo) batch_corners lost 1.8% of
   its item throughput on the benchmark ledger, in every measured pair
   (doc/ENGINE.md, "Earn-its-keep audit"). *)
let logic_labels_memo : (Logic_block.t list * string array) option Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> None)

let logic_labels blocks =
  match Domain.DLS.get logic_labels_memo with
  | Some (b, ls) when b == blocks -> ls
  | _ ->
    let ls =
      Array.of_list
        (List.map
           (fun (b : Logic_block.t) -> "logic: " ^ b.Logic_block.name)
           blocks)
    in
    Domain.DLS.set logic_labels_memo (Some (blocks, ls));
    ls

let logic_table x =
  if Array.length x.c_logic > 0 then x.c_logic
  else begin
    let labels = logic_labels x.c_cfg.Config.logic in
    let a =
      Array.of_list
        (List.mapi
           (fun i (b : Logic_block.t) ->
             ( b.Logic_block.trigger,
               C.v ~label:labels.(i) ~domain:Vdram_circuits.Domains.Vint
                 ~energy:(Logic_block.energy_per_fire x.c_p x.c_d b) ))
           x.c_cfg.Config.logic)
    in
    x.c_logic <- a;
    a
  end

(* Logic blocks that evaluate for this operation occurrence, in
   configuration order — selected rows of the shared table, so the
   contribution records themselves are shared between kinds. *)
let logic_contributions x kind =
  let tbl = logic_table x in
  let n = Array.length tbl in
  let rec collect i =
    if i >= n then []
    else
      let trigger, c = tbl.(i) in
      if trigger_matches trigger kind then c :: collect (i + 1)
      else collect (i + 1)
  in
  collect 0

let plan_of kind : (C.group * (ctx -> C.t list)) array =
  let logic = (C.Logic, fun x -> logic_contributions x kind) in
  match kind with
  | Activate ->
    [|
      ( C.Wordline,
        fun x -> Wordline.activate x.c_p x.c_d ~geometry:x.c_g ~page_bits:x.c_page
      );
      ( C.Sense_amp,
        fun x ->
          Sense_amp.activate x.c_p x.c_d ~geometry:x.c_g ~page_bits:x.c_page );
      ( C.Bus,
        fun x ->
          bus_event x.c_cfg Bus.Row_address "row address bus"
          @ bus_event x.c_cfg Bus.Bank_address "bank address bus"
          @ bus_event x.c_cfg Bus.Command "command bus" );
      logic;
    |]
  | Precharge ->
    [|
      ( C.Wordline,
        fun x ->
          Wordline.precharge x.c_p x.c_d ~geometry:x.c_g ~page_bits:x.c_page );
      ( C.Sense_amp,
        fun x ->
          Sense_amp.precharge x.c_p x.c_d ~geometry:x.c_g ~page_bits:x.c_page );
      ( C.Bus,
        fun x ->
          bus_event x.c_cfg Bus.Bank_address "bank address bus"
          @ bus_event x.c_cfg Bus.Command "command bus" );
      logic;
    |]
  | Read ->
    [|
      ( C.Column,
        fun x -> Column.access x.c_p x.c_d ~geometry:x.c_g ~bits:x.c_bits ~write:false
      );
      ( C.Bus,
        fun x -> data_transfer x.c_cfg Bus.Read_data "read data bus" ~bits:x.c_bits
      );
      (C.Interface, fun x -> dq_interface x.c_cfg ~bits:x.c_bits ~write:false);
      ( C.Bus,
        fun x ->
          bus_event x.c_cfg Bus.Column_address "column address bus"
          @ bus_event x.c_cfg Bus.Bank_address "bank address bus"
          @ bus_event x.c_cfg Bus.Command "command bus" );
      logic;
    |]
  | Write ->
    [|
      ( C.Column,
        fun x -> Column.access x.c_p x.c_d ~geometry:x.c_g ~bits:x.c_bits ~write:true
      );
      ( C.Sense_amp,
        fun x ->
          Sense_amp.write_back x.c_p x.c_d ~bits:x.c_bits
            ~toggle:x.c_cfg.Config.data_toggle );
      ( C.Bus,
        fun x ->
          data_transfer x.c_cfg Bus.Write_data "write data bus" ~bits:x.c_bits );
      (C.Interface, fun x -> dq_interface x.c_cfg ~bits:x.c_bits ~write:true);
      ( C.Bus,
        fun x ->
          bus_event x.c_cfg Bus.Column_address "column address bus"
          @ bus_event x.c_cfg Bus.Bank_address "bank address bus"
          @ bus_event x.c_cfg Bus.Command "command bus" );
      logic;
    |]
  | Nop ->
    (* One control-clock cycle of background: clock trunk and tree
       plus the always-on logic. *)
    [| (C.Bus, fun x -> bus_event x.c_cfg Bus.Clock "clock distribution"); logic |]

let plans = Array.init n (fun i -> plan_of (of_index i))
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
