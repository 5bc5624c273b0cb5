(** The abstract evaluator: the Figure 4 pipeline — capacitance
    extraction, background power, pattern mix — over interval-valued
    configurations.

    Extraction is the interval compilation of the same source the
    concrete model compiles for floats (Devices, the charge models of
    [lib/circuits], the chunk plan of [lib/core]), read through the
    box's accessors, so by induction each concrete intermediate of
    evaluating any member of the box lies inside the corresponding
    interval.  The pattern mix transcribes [Model]'s.  The per-stage
    qcheck property in the test suite exercises this correspondence on
    random boxes.  {!analyze} and {!metric} share one copy of the
    pattern mix; [metric] feeds it only the operation energies it asks
    for. *)

type 'e gen = 'e Vdram_circuits.Contribution.gen = {
  label : string;
  domain : Vdram_circuits.Domains.domain;
  energy : 'e;
}

type contribution = Vdram_units.Interval.t gen

type stages = {
  op_contributions :
    (Vdram_core.Operation.kind * contribution list) list;
      (** extraction stage: per-operation contribution lists *)
  op_energy : (Vdram_core.Operation.kind * Vdram_units.Interval.t) list;
      (** per-operation energies referred to Vdd *)
  background : Vdram_units.Interval.t;  (** watts *)
  power : Vdram_units.Interval.t;       (** watts, pattern average *)
  current : Vdram_units.Interval.t;     (** amperes *)
  loop_time : float;                    (** seconds; no lens moves it *)
  bits_per_loop : float;
  energy_per_bit : Vdram_units.Interval.t option;
      (** J/bit; [None] for data-less patterns *)
}

val analyze : Abox.t -> Vdram_core.Pattern.t -> stages
(** Run the full abstract pipeline for one pattern over a box. *)

type metric = Energy_per_bit | Power

val metric :
  Abox.t -> Vdram_core.Pattern.t -> metric -> Vdram_units.Interval.t option
(** One metric of {!analyze}, bit for bit ([Power] is its [power],
    [Energy_per_bit] its [energy_per_bit]), from only the energies the
    mix needs: Nop and the operations the pattern counts.  Both run the
    same mix code.  Afterwards {!Abox.moved} tells whether any field
    the evaluation read was moved by an axis of the box. *)
