(** What each circuit group reads, traced from the shared charge
    models, and the dirty test of {!Model.extract_delta}.  A read set
    is a bitmask over fields: bit [k] for the [k]th of [Params.fields]
    (38 for [bits_per_csl]), then the voltage domains, the
    configuration's interface scalars and the logic-block scalars (one
    bit per field, for every block alike). *)

val trace : page:int -> Config.t -> int array
(** Per group, by [Contribution.group_index]: the fields its chunks of
    all five operations read, on the configuration's geometry, buses
    and logic blocks.  Costs about one extraction.  Raises
    [Invalid_argument] when a charge model reads a value that is not
    one coded field. *)

val changed : Config.t -> Config.t -> int
(** The fields, in the same bits, that differ; a NaN always differs. *)

val dirty :
  int array -> base_bits:int -> bits:int -> geometry_eq:bool ->
  Config.t -> Config.t -> int
(** [dirty (trace base) ~base_bits ~bits ~geometry_eq base cfg]: the
    groups, as a bitmask over [Contribution.group_index], a field of
    whose set changed, or one of whose structural inputs did (the
    geometry, activated bits, column-command bits, buses, logic names
    and triggers: what the models read without tracing). *)
