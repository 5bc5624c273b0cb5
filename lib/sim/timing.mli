(** DRAM timing constraints in controller clock cycles, derived from a
    device configuration.  The controller clock is the device's
    command clock. *)

type t = {
  tck : float;   (** clock period, s *)
  trcd : int;    (** activate to column command *)
  trp : int;     (** precharge to activate *)
  tras : int;    (** activate to precharge *)
  trc : int;     (** activate to activate, same bank *)
  trrd : int;    (** activate to activate, different bank *)
  tfaw : int;    (** rolling four-activate window *)
  tccd : int;    (** column command to column command (burst occupancy) *)
  tccd_l : int;  (** column to column within a bank group (DDR4/5) *)
  bank_groups : int;
      (** bank groups sharing internal datapaths; 1 before DDR4 *)
  cl : int;      (** read latency *)
  twl : int;     (** write latency *)
  twr : int;     (** write recovery before precharge *)
  trtp : int;    (** read to precharge *)
  trefi : int;   (** average refresh interval *)
  trfc : int;    (** refresh cycle time *)
  txp : int;     (** power-down exit latency *)
}

val of_config : Vdram_core.Config.t -> t
(** Derive the timing set: tRC/tRCD/tRP/tFAW from the specification,
    tCCD from the burst occupancy, CAS latency from tRCD, tRFC from
    the device density (JEDEC-style 110–350 ns), tREFI = 7.8 us. *)

val of_generation : Vdram_tech.Roadmap.t -> t
(** [of_config (Config.of_generation g)], derived from the
    generation's specification alone ({!Vdram_core.Config.generation_spec}):
    the roadmap sweeps need no full configuration. *)

val worst_case : t -> t -> t
(** The hardest-to-satisfy combination of two timing sets: the
    elementwise max of every constraint window (and the min of the
    refresh interval, which binds tighter the shorter it is).  Every
    {!Legality} gate is monotone nondecreasing in its timing fields
    and transitions apply only when legal, so a command stream legal
    under [worst_case a b] is legal under both [a] and [b] — the
    whole-sweep legality check in `vdram check` replays once against
    the fold of this over a generation range. *)

val pp : Format.formatter -> t -> unit
