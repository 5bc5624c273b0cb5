(* Timing constraints derived from a configuration. *)

module Config = Vdram_core.Config
module Spec = Vdram_core.Spec

type t = {
  tck : float;
  trcd : int;
  trp : int;
  tras : int;
  trc : int;
  trrd : int;
  tfaw : int;
  tccd : int;
  tccd_l : int;
  bank_groups : int;
  cl : int;
  twl : int;
  twr : int;
  trtp : int;
  trefi : int;
  trfc : int;
  txp : int;
}

let cycles_of ~tck seconds = max 1 (int_of_float (Float.ceil (seconds /. tck)))

let of_spec ~node (spec : Spec.t) =
  let tck = 1.0 /. spec.Spec.control_clock in
  let c = cycles_of ~tck in
  let trcd = c spec.Spec.trcd in
  let trp = c spec.Spec.trp in
  let trc = c spec.Spec.trc in
  let tras = max 1 (trc - trp) in
  let tfaw = c spec.Spec.tfaw in
  let tccd = Spec.clocks_per_column_command spec in
  (* Bank groups arrive with DDR4: long tCCD within a group. *)
  let bank_groups =
    match Vdram_tech.Node.standard node with
    | Vdram_tech.Node.Ddr4 | Vdram_tech.Node.Ddr5 ->
      max 1 (spec.Spec.banks / 4)
    | _ -> 1
  in
  let tccd_l =
    if bank_groups > 1 then tccd + max 1 (tccd / 2) else tccd
  in
  (* Refresh cycle time grows with density, JEDEC-style. *)
  let gbit = spec.Spec.density_bits /. (2.0 ** 30.0) in
  let trfc_s =
    if gbit <= 1.0 then 110e-9
    else if gbit <= 2.0 then 160e-9
    else if gbit <= 4.0 then 260e-9
    else 350e-9
  in
  {
    tck;
    trcd;
    trp;
    tras;
    trc;
    trrd = max 2 (tfaw / 4);
    tfaw;
    tccd;
    tccd_l;
    bank_groups;
    cl = trcd;
    twl = max 1 (trcd - 1);
    twr = c 15e-9;
    trtp = max 2 (tccd / 2);
    trefi = c 7.8e-6;
    trfc = c trfc_s;
    txp = c 24e-9;
  }

let of_config (cfg : Config.t) = of_spec ~node:cfg.Config.node cfg.Config.spec

let of_generation (g : Vdram_tech.Roadmap.t) =
  of_spec ~node:g.Vdram_tech.Roadmap.node (Config.generation_spec g)

(* The elementwise-max timing set of two generations.  Every legality
   gate is [issue cycle + field] (or a max of such), monotone
   nondecreasing in each field, and transitions apply only when legal
   — so a command stream legal under the worst case is legal under
   every pointwise-smaller timing set.  `vdram check` leans on this to
   clear a whole sweep with one replay. *)
let worst_case a b =
  {
    tck = Float.max a.tck b.tck;
    trcd = max a.trcd b.trcd;
    trp = max a.trp b.trp;
    tras = max a.tras b.tras;
    trc = max a.trc b.trc;
    trrd = max a.trrd b.trrd;
    tfaw = max a.tfaw b.tfaw;
    tccd = max a.tccd b.tccd;
    tccd_l = max a.tccd_l b.tccd_l;
    bank_groups = max a.bank_groups b.bank_groups;
    cl = max a.cl b.cl;
    twl = max a.twl b.twl;
    twr = max a.twr b.twr;
    trtp = max a.trtp b.trtp;
    trefi = min a.trefi b.trefi;
    trfc = max a.trfc b.trfc;
    txp = max a.txp b.txp;
  }

let pp ppf t =
  Format.fprintf ppf
    "tCK %.2f ns, tRCD %d, tRP %d, tRAS %d, tRC %d, tRRD %d, tFAW %d, \
     tCCD %d/%d (%d groups), CL %d, tWR %d, tREFI %d, tRFC %d"
    (t.tck *. 1e9) t.trcd t.trp t.tras t.trc t.trrd t.tfaw t.tccd t.tccd_l
    t.bank_groups t.cl t.twr t.trefi t.trfc
