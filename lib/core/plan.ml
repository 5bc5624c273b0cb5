(* Per-operation chunk plan: which circuit group contributes which
   contribution list to each operation, in concatenation order, and the
   configuration-level terms (buses, DQ interface, logic blocks).

   Shared source, compiled for floats here and for intervals in
   lib/absint: Num values only through Num, integers through Stdlib, no
   branch on a Num.t, every read through [rd] (lib/tech/num.ml). *)

open Num
module G = Vdram_floorplan.Array_geometry

type ctx = {
  cfg : Config.t;
      (* what no lens moves: bus wiring, the logic blocks' names and
         triggers *)
  c : Config.t reader;
  p : Vdram_tech.Params.t reader;
  d : Domains.t reader;
  blk : int -> Logic_block.t -> Logic_block.t reader;
      (* [blk i b]: the reader of [b], block [i] of [cfg.logic] *)
  g : G.t;
  page : int;
  bits : int;
  mutable logic : Contribution.t array;
      (* per-block contribution, filled the first time one of the five
         logic chunks of this [ctx] selects the block, and shared by
         every chunk that selects it: a block's per-fire energy and
         label never depend on which operation triggered it.  [[||]]
         means not yet allocated. *)
}

let trigger_matches trigger op =
  match (trigger, op) with
  | Logic_block.Always, None -> true
  | Logic_block.Always, Some _ -> false
  | Logic_block.On_operation ops, Some op -> List.mem op ops
  | Logic_block.On_operation _, None -> false

let bus_event x role label =
  match Config.bus x.cfg role with
  | None -> []
  | Some b ->
    [ Contribution.v ~label ~domain:Domains.Vint
        ~energy:(Bus.energy_per_event x.p x.d b) ]

let data_transfer x role label =
  match Config.bus x.cfg role with
  | None -> []
  | Some b ->
    (* Internal data buses are precharged dual-rail: one event per
       transported bit independent of the data pattern. *)
    let per_bit = Bus.energy_per_bit x.p x.d b in
    [ Contribution.v ~label ~domain:Domains.Vint
        ~energy:(of_int x.bits * per_bit) ]

(* Internal interface load per transported bit: output pre-drivers and
   level shifters for reads, receivers / latches / strobe distribution
   for writes.  The Vddq output stage itself is excluded, as in the
   paper. *)
let dq_interface x ~write =
  let cap =
    if write then rd x.c (fun c -> c.io_receiver_cap)
    else rd x.c (fun c -> c.io_predriver_cap)
  in
  let label = if write then "DQ receivers" else "DQ pre-drivers" in
  [
    Contribution.v ~label ~domain:Domains.Vdd
      ~energy:
        (rd x.c (fun c -> c.data_toggle)
        * Contribution.events ~count:(of_int x.bits) ~cap
            ~voltage:(rd x.d (fun d -> d.vdd)));
  ]

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

let unset = Contribution.v ~label:"" ~domain:Domains.Vdd ~energy:(lit 0.0)

(* Logic blocks that evaluate for this operation occurrence, in
   configuration order: each block's record is built once per [ctx],
   so the records themselves are shared between operations, and a
   block no evaluated operation triggers is never read. *)
let logic_contributions x op =
  let blocks = x.cfg.logic in
  if Array.length x.logic = 0 then
    x.logic <- Array.make (List.length blocks) unset;
  let rows = x.logic and labels = logic_labels blocks in
  let rec collect i = function
    | [] -> []
    | (b : Logic_block.t) :: rest ->
      if trigger_matches b.trigger op then begin
        if rows.(i) == unset then
          rows.(i) <-
            Contribution.v ~label:labels.(i) ~domain:Domains.Vint
              ~energy:(Logic_block.energy_per_fire x.p x.d (x.blk i b));
        rows.(i) :: collect (succ i) rest
      end
      else collect (succ i) rest
  in
  collect 0 blocks

(* The chunk plan of one operation, named by the trigger it fires on
   logic blocks ([None] for Nop).  The group sequence is static: it
   never depends on configuration values. *)
let plan_of op : (Contribution.group * (ctx -> Contribution.t list)) array =
  let logic = (Contribution.Logic, fun x -> logic_contributions x op) in
  let column_commands x =
    bus_event x Bus.Column_address "column address bus"
    @ bus_event x Bus.Bank_address "bank address bus"
    @ bus_event x Bus.Command "command bus"
  in
  match op with
  | Some `Activate ->
    [|
      ( Contribution.Wordline,
        fun x -> Wordline.activate x.p x.d ~geometry:x.g ~page_bits:x.page );
      ( Contribution.Sense_amp,
        fun x -> Sense_amp.activate x.p x.d ~geometry:x.g ~page_bits:x.page );
      ( Contribution.Bus,
        fun x ->
          bus_event x Bus.Row_address "row address bus"
          @ bus_event x Bus.Bank_address "bank address bus"
          @ bus_event x Bus.Command "command bus" );
      logic;
    |]
  | Some `Precharge ->
    [|
      ( Contribution.Wordline,
        fun x -> Wordline.precharge x.p x.d ~geometry:x.g ~page_bits:x.page );
      ( Contribution.Sense_amp,
        fun x -> Sense_amp.precharge x.p x.d ~geometry:x.g ~page_bits:x.page );
      ( Contribution.Bus,
        fun x ->
          bus_event x Bus.Bank_address "bank address bus"
          @ bus_event x Bus.Command "command bus" );
      logic;
    |]
  | Some `Read ->
    [|
      ( Contribution.Column,
        fun x ->
          Column.access x.p x.d ~geometry:x.g ~bits:x.bits ~write:false );
      ( Contribution.Bus,
        fun x -> data_transfer x Bus.Read_data "read data bus" );
      (Contribution.Interface, fun x -> dq_interface x ~write:false);
      (Contribution.Bus, column_commands);
      logic;
    |]
  | Some `Write ->
    [|
      ( Contribution.Column,
        fun x -> Column.access x.p x.d ~geometry:x.g ~bits:x.bits ~write:true );
      ( Contribution.Sense_amp,
        fun x ->
          Sense_amp.write_back x.p x.d ~bits:x.bits
            ~toggle:(rd x.c (fun c -> c.data_toggle)) );
      ( Contribution.Bus,
        fun x -> data_transfer x Bus.Write_data "write data bus" );
      (Contribution.Interface, fun x -> dq_interface x ~write:true);
      (Contribution.Bus, column_commands);
      logic;
    |]
  | None ->
    (* One control-clock cycle of background: clock trunk and tree
       plus the always-on logic. *)
    [| (Contribution.Bus, fun x -> bus_event x Bus.Clock "clock distribution");
       logic |]
