(* What each circuit group reads, traced from the shared charge models
   ([Traced], their read-set compilation), and the dirty test built on
   it. *)

module C = Vdram_circuits.Contribution
module P = Vdram_tech.Params
module D = Vdram_circuits.Domains
module LB = Vdram_circuits.Logic_block

(* Bit layout: the technology parameters in [P.changed] order, the
   domains, the interface scalars the models read, then the logic-block
   scalars, one bit per field for every block alike. *)
let domains_at = P.count
let config_at = domains_at + 8
let logic_at = config_at + 3
let code = Trace_num.code

(* The technology record with every field holding its own code, the
   same for every configuration: built at a domain's first trace. *)
let tech_sentinel =
  Domain.DLS.new_key (fun () ->
      let tech, _ =
        List.fold_left
          (fun (t, i) (_, _, set) -> (set t (code i), i + 1))
          (P.reference, 0) P.fields
      in
      { tech with P.bits_per_csl = Float.to_int (code 38) })

(* [cfg] with every traced field holding its own code. *)
let sentinel (cfg : Config.t) =
  let d k = code (domains_at + k) and c k = code (config_at + k) in
  { cfg with
    Config.tech = Domain.DLS.get tech_sentinel;
    domains =
      { D.vdd = d 0; vint = d 1; vbl = d 2; vpp = d 3; eff_int = d 4;
        eff_bl = d 5; eff_pp = d 6; i_constant = d 7 };
    data_toggle = c 0; io_predriver_cap = c 1; io_receiver_cap = c 2 }

let trace ~page (cfg : Config.t) =
  let s = sentinel cfg and l k = code (logic_at + k) in
  let block =
    { LB.name = ""; gates = l 0; w_nmos = l 1; w_pmos = l 2;
      transistors_per_gate = l 3; layout_density = l 4;
      wiring_density = l 5; toggle = l 6; trigger = LB.Always }
  in
  let read r sel = Trace_num.bit (sel r) in
  let x =
    { Traced.Plan.cfg; c = read s; p = read s.Config.tech;
      d = read s.Config.domains; blk = (fun _ _ -> read block);
      g = Config.geometry cfg; page;
      bits = Spec.bits_per_column_command cfg.Config.spec; logic = [||] }
  in
  let sets = Array.make C.group_count 0 in
  List.iter
    (fun kind ->
      Array.iter
        (fun (g, chunk) ->
          let i = C.group_index g in
          List.iter
            (fun (c : Traced.Contribution.t) ->
              sets.(i) <- sets.(i) lor c.C.energy)
            (chunk x))
        (Traced.Plan.plan_of (Operation.to_trigger_op kind)))
    Operation.all;
  sets

let rec logic_changed (a : LB.t list) (b : LB.t list) =
  match (a, b) with
  | x :: a, y :: b ->
    (if x == y then 0 else LB.changed x y) lor logic_changed a b
  | _ -> 0

(* A perturbed configuration shares with its base every record the
   change did not rebuild, so [==] skips most of the walk. *)
let changed (a : Config.t) (b : Config.t) =
  let[@inline] ne k (x : float) y = if x = y then 0 else 1 lsl (config_at + k) in
  (if a.tech == b.tech then 0 else P.changed a.tech b.tech)
  lor (if a.domains == b.domains then 0
       else D.changed a.domains b.domains lsl domains_at)
  lor ne 0 a.data_toggle b.data_toggle
  lor ne 1 a.io_predriver_cap b.io_predriver_cap
  lor ne 2 a.io_receiver_cap b.io_receiver_cap
  lor (if a.logic == b.logic then 0
       else logic_changed a.logic b.logic lsl logic_at)

(* What the shared source reads without [rd], and so may branch on:
   the array geometry, the activated page bits, the bits of a column
   command, the buses, the logic blocks' names and triggers.  Each
   group's entry, in [C.group_index] order, names those its models
   take. *)
let geometry = 1 and page = 2 and column = 4 and buses = 8 and logic = 16

let structure =
  [| geometry lor page; geometry lor page lor column; geometry lor column;
     buses lor column; column; logic |]

(* A lens rebuilds the blocks around their name and trigger, so [==]
   settles each comparison. *)
let same_shape (a : LB.t list) b =
  a == b
  || List.equal
       (fun (x : LB.t) (y : LB.t) ->
         (x.name == y.name || String.equal x.name y.name)
         && (x.trigger == y.trigger || x.trigger = y.trigger))
       a b

let dirty sets ~base_bits ~bits ~geometry_eq (a : Config.t) (b : Config.t) =
  let moved =
    (if geometry_eq then 0 else geometry)
    lor (if base_bits = bits then 0 else page)
    lor (if Spec.bits_per_column_command a.spec
            = Spec.bits_per_column_command b.spec then 0
         else column)
    lor (if a.buses == b.buses || a.buses = b.buses then 0 else buses)
    lor if same_shape a.logic b.logic then 0 else logic
  in
  let fields = changed a b and mask = ref 0 in
  for g = 0 to C.group_count - 1 do
    if sets.(g) land fields <> 0 || structure.(g) land moved <> 0 then
      mask := !mask lor (1 lsl g)
  done;
  !mask
