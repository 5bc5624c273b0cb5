(** A named energy contribution of one operation.

    Every charging or discharging of capacitance [C] across voltage
    [V] dissipates [1/2 C V^2] (paper eq. 1); a contribution is a
    labelled bundle of such events, expressed as joules dissipated in
    one voltage domain each time the owning operation executes. *)

type 'e gen = 'e Contribution_types.gen = {
  label : string;           (** breakdown group, e.g. ["bitline sensing"] *)
  domain : Domains.domain;  (** where the energy is dissipated *)
  energy : 'e;              (** joules per operation occurrence *)
}
(** Polymorphic in the energy so that the interval compilation of the
    charge models ([vdram check]) builds the same record. *)

type t = float gen

type group = Contribution_types.group =
  | Wordline
  | Sense_amp
  | Column
  | Bus
  | Interface
  | Logic
(** The circuit group a contribution originates from — one per charge
    model under [lib/circuits], plus the configuration-level DQ
    interface.  This is the granularity of the staged engine's
    incremental delta-extraction: a perturbation dirties some groups
    and the engine re-extracts only those. *)

val groups : group list
(** All groups, in {!group_index} order. *)

val group_count : int
(** [List.length groups]. *)

val group_index : group -> int
(** Dense index, [0 .. group_count - 1]. *)

val group_name : group -> string

val v : label:string -> domain:Domains.domain -> energy:float -> t

val event : cap:float -> voltage:float -> float
(** [1/2 C V^2] of one charge or discharge event. *)

val events : count:float -> cap:float -> voltage:float -> float
(** [count] events of [1/2 C V^2]. *)

val total_at_vdd : Domains.t -> t list -> float
(** Total energy drawn from the external supply, accounting for
    generator efficiencies. *)

val by_label : t list -> (string * float) list
(** Internal energy summed per label, descending. *)
