(* The abstract evaluator: the Figure 4 pipeline on interval-valued
   configurations.

   Extraction is the interval compilation of the charge models
   themselves: Devices, the models of lib/circuits and the chunk plan
   of lib/core are copied into this library by its dune file and
   compiled against [Num], whose readers are the box's accessors
   ([ctx]).  Each interval operation contains every rounded result of
   the float operation the concrete compilation performs at the same
   place, and [Abox] returns for each read an interval holding the
   value of every member of the box, so by induction every concrete
   intermediate lies inside its interval.  The per-stage qcheck
   property in the test suite exercises exactly this correspondence.

   The pattern mix is [Model]'s, transcribed: [Model] runs it on dense
   arrays for the staged engine, and the containment property covers
   the copy.  Everything no lens moves — geometry, floorplan, bus
   wiring, spec, page size, trigger wiring — is a point interval read
   off the box's nominal configuration. *)

module I = Vdram_units.Interval
module Config = Vdram_core.Config
module Spec = Vdram_core.Spec
module Pattern = Vdram_core.Pattern
module Operation = Vdram_core.Operation
module Model = Vdram_core.Model

open I.O

type 'e gen = 'e Contribution.gen = {
  label : string;
  domain : Domains.domain;
  energy : 'e;
}

type contribution = Contribution.t

type stages = {
  op_contributions : (Operation.kind * contribution list) list;
  op_energy : (Operation.kind * I.t) list;
  background : I.t;
  power : I.t;
  current : I.t;
  loop_time : float;
  bits_per_loop : float;
  energy_per_bit : I.t option;
}

(* The plan's readers over a box: technology parameters, voltage
   domains, top-level configuration fields and logic blocks. *)
let ctx box =
  let base = Abox.base box in
  {
    Plan.cfg = base;
    c = Abox.field box;
    p = Abox.tech box;
    d = Abox.domains box;
    blk = (fun i _ -> Abox.logic box i);
    g = Config.geometry base;
    page = Config.activated_bits base;
    bits = Spec.bits_per_column_command base.Config.spec;
    logic = [||];
  }

let plans =
  Array.init Operation.n (fun i ->
      Plan.plan_of (Operation.to_trigger_op (Operation.of_index i)))

let contributions x kind =
  List.concat_map
    (fun (_, chunk) -> chunk x)
    (Array.to_list plans.(Operation.index kind))

(* ----- Model stages ------------------------------------------------ *)

let receiver_bias_power (x : Plan.ctx) =
  I.of_int x.cfg.Config.input_receivers
  * x.c (fun c -> c.Config.receiver_bias)
  * x.d (fun d -> d.Domains.vdd)

(* The pattern mix: every stage after extraction, from per-operation
   energies.  [analyze] and [metric] share this one copy.  [energy] is
   asked for Nop (the background floor) and for each operation the
   pattern counts, once each; the extraction-stage lists are the
   caller's. *)
let mix (x : Plan.ctx) pattern energy ~op_contributions ~op_energy =
  let spec = x.cfg.Config.spec in
  let background =
    (energy Operation.Nop * I.point spec.Spec.control_clock)
    + (x.d (fun d -> d.Domains.i_constant) * x.d (fun d -> d.Domains.vdd))
    + receiver_bias_power x
  in
  let loop_time = Model.loop_time spec pattern in
  let op_power =
    List.fold_left
      (fun acc (kind, count) ->
        acc + (I.of_int count * energy kind / I.point loop_time))
      I.zero (Model.op_counts pattern)
  in
  let power = background + op_power in
  let current = power / x.d (fun d -> d.Domains.vdd) in
  let bits_per_loop = Model.bits_per_loop spec pattern in
  let energy_per_bit =
    if bits_per_loop > 0.0 then
      Some (power * I.point loop_time / I.point bits_per_loop)
    else None
  in
  {
    op_contributions;
    op_energy;
    background;
    power;
    current;
    loop_time;
    bits_per_loop;
    energy_per_bit;
  }

let analyze box pattern =
  let x = ctx box in
  let op_contributions =
    List.map (fun kind -> (kind, contributions x kind)) Operation.all
  in
  let op_energy =
    List.map
      (fun (kind, cs) -> (kind, Contribution.total_at_vdd x.d cs))
      op_contributions
  in
  mix x pattern
    (fun kind -> List.assoc kind op_energy)
    ~op_contributions ~op_energy

type metric = Energy_per_bit | Power

let metric box pattern wanted =
  let x = ctx box in
  let s =
    mix x pattern
      (fun kind -> Contribution.total_at_vdd x.d (contributions x kind))
      ~op_contributions:[] ~op_energy:[]
  in
  match wanted with
  | Power -> Some s.power
  | Energy_per_bit -> s.energy_per_bit
