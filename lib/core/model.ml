(* Power calculation: operations x rates + background. *)

module C = Vdram_circuits.Contribution
module Domains = Vdram_circuits.Domains
module P = Vdram_tech.Params

let receiver_bias_power (cfg : Config.t) =
  let d = cfg.Config.domains in
  float_of_int cfg.Config.input_receivers
  *. cfg.Config.receiver_bias *. d.Domains.vdd

let background_power (cfg : Config.t) =
  let spec = cfg.Config.spec in
  let nop = Operation.energy cfg Operation.Nop in
  let d = cfg.Config.domains in
  (nop *. spec.Spec.control_clock)
  +. (d.Domains.i_constant *. d.Domains.vdd)
  +. receiver_bias_power cfg

type state =
  | Active_standby
  | Precharge_standby
  | Power_down
  | Self_refresh

let state_name = function
  | Active_standby -> "active standby"
  | Precharge_standby -> "precharge standby"
  | Power_down -> "power-down"
  | Self_refresh -> "self refresh"

(* Rows a refresh command must restore: every bank refreshes one row
   per 8k-row slice of its address space. *)
let rows_per_refresh (cfg : Config.t) =
  let spec = cfg.Config.spec in
  let rows_per_bank =
    spec.Spec.density_bits
    /. float_of_int (spec.Spec.banks * Config.page_bits cfg)
  in
  Float.max 1.0 (rows_per_bank /. 8192.0) *. float_of_int spec.Spec.banks

let refresh_energy (cfg : Config.t) =
  rows_per_refresh cfg
  *. (Operation.energy cfg Operation.Activate
     +. Operation.energy cfg Operation.Precharge)

let refresh_power (cfg : Config.t) =
  refresh_energy cfg /. cfg.Config.spec.Spec.trefi

let powerdown_power (cfg : Config.t) =
  let d = cfg.Config.domains in
  (d.Domains.i_constant *. d.Domains.vdd) +. (0.25 *. background_power cfg)

let idd5b (cfg : Config.t) =
  let spec = cfg.Config.spec in
  let power = background_power cfg +. (refresh_energy cfg /. spec.Spec.trfc) in
  power /. cfg.Config.domains.Domains.vdd

let state_power cfg = function
  | Active_standby | Precharge_standby -> background_power cfg
  | Power_down -> powerdown_power cfg
  | Self_refresh -> powerdown_power cfg +. refresh_power cfg

let op_counts pattern =
  List.filter_map
    (fun kind ->
      let count =
        match kind with
        | Operation.Activate -> Pattern.count pattern Pattern.Act
        | Operation.Precharge -> Pattern.count pattern Pattern.Pre
        | Operation.Read -> Pattern.count pattern Pattern.Rd
        | Operation.Write -> Pattern.count pattern Pattern.Wr
        | Operation.Nop -> 0
      in
      if count > 0 then Some (kind, count) else None)
    Operation.all

(* Shared mix-stage seams: the loop period and the data volume per
   loop.  The abstract interpreter (`vdram check`) mirrors the mix
   stage on intervals and must agree with the concrete stage about
   these two scalars, so both read them from here. *)
let loop_time (spec : Spec.t) pattern =
  float_of_int (Pattern.cycles pattern) /. spec.Spec.control_clock

let bits_per_loop (spec : Spec.t) pattern =
  let data_commands =
    Pattern.count pattern Pattern.Rd + Pattern.count pattern Pattern.Wr
  in
  float_of_int (data_commands * Spec.bits_per_column_command spec)

(* ----- staged evaluation seams ------------------------------------- *)

(* Bump whenever the physics changes in any way that can alter a
   computed number — or, as for ".2", whenever the marshalled
   [extraction] representation changes: the staged engine stamps its
   persistent cache with this, so stale on-disk entries are discarded
   instead of served. *)
let version = "model-2026-08.3"

(* The name identifies a configuration to humans, not to physics: two
   configurations differing only in [name] share every stage output.
   This projection is the content identity the engine's extraction and
   pattern-mix caches key on. *)
let physics_projection (cfg : Config.t) = { cfg with Config.name = "" }

(* ----- per-group sub-keys ------------------------------------------ *)

(* Each circuit group's sub-key is the marshalled tuple of exactly the
   configuration values its charge model reads: two configurations
   with equal sub-keys produce bit-identical contribution chunks for
   that group, so delta-extraction may splice the chunk from a base
   extraction whenever the sub-keys match.  Correctness is content
   addressing, not trust — the key IS the group's read set, and the
   qcheck delta=full property sweeps every lens to police it. *)

let marshal_key v = Marshal.to_string v [ Marshal.No_sharing ]

(* The tuples below are the definition of record for each group's read
   set; {!group_key} marshals and digests them on demand for tests and
   diagnostics.  The delta probe itself never builds them — it runs
   the compiled field-by-field predicates of [dirty_groups], which must
   mirror these tuples exactly; the delta=full qcheck property
   cross-checks the two encodings against each other for every lens. *)
let group_keys ~activated_bits:page (cfg : Config.t) =
  let p = cfg.Config.tech and d = cfg.Config.domains in
  let g = Config.geometry cfg in
  let bits = Spec.bits_per_column_command cfg.Config.spec in
  let wordline =
    ( ( p.P.tox_logic, p.P.tox_hv, p.P.tox_cell, p.P.lmin_logic, p.P.lmin_hv,
        p.P.cj_hv, p.P.l_cell, p.P.w_cell ),
      ( p.P.c_bitline, p.P.bl_wl_coupling, p.P.c_wire_mwl, p.P.mwl_predecode,
        p.P.w_mwl_dec_n, p.P.w_mwl_dec_p, p.P.mwl_dec_activity ),
      ( p.P.w_wlctl_load_n, p.P.w_wlctl_load_p, p.P.w_lwd_n, p.P.w_lwd_p,
        p.P.w_lwd_restore, p.P.c_wire_lwl, p.P.c_wire_signal ),
      (d.Domains.vint, d.Domains.vpp),
      (g, page) )
  in
  let sense_amp =
    ( ( p.P.tox_logic, p.P.tox_hv, p.P.cj_logic, p.P.cj_hv, p.P.c_bitline,
        p.P.c_cell ),
      ( p.P.w_sa_n, p.P.l_sa_n, p.P.w_sa_p, p.P.l_sa_p, p.P.w_sa_eq,
        p.P.l_sa_eq, p.P.w_sa_bitswitch ),
      ( p.P.w_sa_mux, p.P.l_sa_mux, p.P.w_sa_nset, p.P.l_sa_nset,
        p.P.w_sa_pset, p.P.l_sa_pset ),
      (d.Domains.vint, d.Domains.vbl, d.Domains.vpp),
      (g, page, bits, cfg.Config.data_toggle) )
  in
  let column =
    ( ( p.P.c_wire_signal, p.P.bits_per_csl, p.P.tox_logic, p.P.cj_logic,
        p.P.lmin_logic ),
      ( p.P.w_sa_bitswitch, p.P.l_sa_bitswitch, p.P.w_sa_n, p.P.l_sa_n,
        p.P.w_mwl_dec_n, p.P.w_mwl_dec_p, p.P.mwl_predecode,
        p.P.mwl_dec_activity ),
      (d.Domains.vint, d.Domains.vbl),
      (g, bits) )
  in
  let bus =
    ( (p.P.c_wire_signal, p.P.lmin_logic, p.P.tox_logic, p.P.cj_logic),
      d.Domains.vint,
      (cfg.Config.buses, bits) )
  in
  let interface =
    ( d.Domains.vdd,
      cfg.Config.data_toggle,
      cfg.Config.io_predriver_cap,
      cfg.Config.io_receiver_cap,
      bits )
  in
  let logic =
    ( (p.P.lmin_logic, p.P.tox_logic, p.P.cj_logic, p.P.c_wire_signal),
      d.Domains.vint,
      cfg.Config.logic )
  in
  (* Indexed by [C.group_index]. *)
  [|
    Obj.repr wordline;
    Obj.repr sense_amp;
    Obj.repr column;
    Obj.repr bus;
    Obj.repr interface;
    Obj.repr logic;
  |]

(* Dirty-group bitmask over [C.group_index], deciding whether each
   group's sub-key is unchanged without building or serializing the
   projection tuples — a delta probe runs once per perturbed
   configuration, and the tuple builds were measurably its most
   expensive step.  Field comparisons mirror [group_keys] one for one;
   float [=] is false on NaN, which errs toward dirty and is therefore
   safe (an unnecessary re-extract is exact, a wrong splice is not). *)
let dirty_groups ~base_bits ~bits ~geometry_eq (a : Config.t) (b : Config.t) =
  let pa = a.Config.tech and pb = b.Config.tech in
  let da = a.Config.domains and db = b.Config.domains in
  (* Structural [=] never shortcuts on physical equality (a value
     containing NaN must differ from itself), but a perturbed
     configuration is a copy of its base that physically shares every
     substructure the lens did not rebuild — so an explicit [==] fast
     path skips whole record and list walks for the common case of a
     one-field perturbation.  The geometry comparison is hoisted to
     the caller, which already has both geometries in hand. *)
  let teq = pa == pb and deq = da == db in
  let page_eq = base_bits = bits in
  let colbits_eq =
    Spec.bits_per_column_command a.Config.spec
    = Spec.bits_per_column_command b.Config.spec
  in
  let buses_eq =
    a.Config.buses == b.Config.buses || a.Config.buses = b.Config.buses
  in
  let logic_eq =
    a.Config.logic == b.Config.logic || a.Config.logic = b.Config.logic
  in
  let wordline =
    (teq
    || pa.P.tox_logic = pb.P.tox_logic
       && pa.P.tox_hv = pb.P.tox_hv
       && pa.P.tox_cell = pb.P.tox_cell
       && pa.P.lmin_logic = pb.P.lmin_logic
       && pa.P.lmin_hv = pb.P.lmin_hv
       && pa.P.cj_hv = pb.P.cj_hv
       && pa.P.l_cell = pb.P.l_cell
       && pa.P.w_cell = pb.P.w_cell
       && pa.P.c_bitline = pb.P.c_bitline
       && pa.P.bl_wl_coupling = pb.P.bl_wl_coupling
       && pa.P.c_wire_mwl = pb.P.c_wire_mwl
       && pa.P.mwl_predecode = pb.P.mwl_predecode
       && pa.P.w_mwl_dec_n = pb.P.w_mwl_dec_n
       && pa.P.w_mwl_dec_p = pb.P.w_mwl_dec_p
       && pa.P.mwl_dec_activity = pb.P.mwl_dec_activity
       && pa.P.w_wlctl_load_n = pb.P.w_wlctl_load_n
       && pa.P.w_wlctl_load_p = pb.P.w_wlctl_load_p
       && pa.P.w_lwd_n = pb.P.w_lwd_n
       && pa.P.w_lwd_p = pb.P.w_lwd_p
       && pa.P.w_lwd_restore = pb.P.w_lwd_restore
       && pa.P.c_wire_lwl = pb.P.c_wire_lwl
       && pa.P.c_wire_signal = pb.P.c_wire_signal)
    && (deq
       || (da.Domains.vint = db.Domains.vint && da.Domains.vpp = db.Domains.vpp))
    && geometry_eq && page_eq
  in
  let sense_amp =
    (teq
    || pa.P.tox_logic = pb.P.tox_logic
       && pa.P.tox_hv = pb.P.tox_hv
       && pa.P.cj_logic = pb.P.cj_logic
       && pa.P.cj_hv = pb.P.cj_hv
       && pa.P.c_bitline = pb.P.c_bitline
       && pa.P.c_cell = pb.P.c_cell
       && pa.P.w_sa_n = pb.P.w_sa_n
       && pa.P.l_sa_n = pb.P.l_sa_n
       && pa.P.w_sa_p = pb.P.w_sa_p
       && pa.P.l_sa_p = pb.P.l_sa_p
       && pa.P.w_sa_eq = pb.P.w_sa_eq
       && pa.P.l_sa_eq = pb.P.l_sa_eq
       && pa.P.w_sa_bitswitch = pb.P.w_sa_bitswitch
       && pa.P.w_sa_mux = pb.P.w_sa_mux
       && pa.P.l_sa_mux = pb.P.l_sa_mux
       && pa.P.w_sa_nset = pb.P.w_sa_nset
       && pa.P.l_sa_nset = pb.P.l_sa_nset
       && pa.P.w_sa_pset = pb.P.w_sa_pset
       && pa.P.l_sa_pset = pb.P.l_sa_pset)
    && (deq
       || da.Domains.vint = db.Domains.vint
          && da.Domains.vbl = db.Domains.vbl
          && da.Domains.vpp = db.Domains.vpp)
    && geometry_eq && page_eq && colbits_eq
    && a.Config.data_toggle = b.Config.data_toggle
  in
  let column =
    (teq
    || pa.P.c_wire_signal = pb.P.c_wire_signal
       && pa.P.bits_per_csl = pb.P.bits_per_csl
       && pa.P.tox_logic = pb.P.tox_logic
       && pa.P.cj_logic = pb.P.cj_logic
       && pa.P.lmin_logic = pb.P.lmin_logic
       && pa.P.w_sa_bitswitch = pb.P.w_sa_bitswitch
       && pa.P.l_sa_bitswitch = pb.P.l_sa_bitswitch
       && pa.P.w_sa_n = pb.P.w_sa_n
       && pa.P.l_sa_n = pb.P.l_sa_n
       && pa.P.w_mwl_dec_n = pb.P.w_mwl_dec_n
       && pa.P.w_mwl_dec_p = pb.P.w_mwl_dec_p
       && pa.P.mwl_predecode = pb.P.mwl_predecode
       && pa.P.mwl_dec_activity = pb.P.mwl_dec_activity)
    && (deq
       || (da.Domains.vint = db.Domains.vint && da.Domains.vbl = db.Domains.vbl))
    && geometry_eq && colbits_eq
  in
  let bus =
    (teq
    || pa.P.c_wire_signal = pb.P.c_wire_signal
       && pa.P.lmin_logic = pb.P.lmin_logic
       && pa.P.tox_logic = pb.P.tox_logic
       && pa.P.cj_logic = pb.P.cj_logic)
    && (deq || da.Domains.vint = db.Domains.vint)
    && buses_eq && colbits_eq
  in
  let interface =
    (deq || da.Domains.vdd = db.Domains.vdd)
    && a.Config.data_toggle = b.Config.data_toggle
    && a.Config.io_predriver_cap = b.Config.io_predriver_cap
    && a.Config.io_receiver_cap = b.Config.io_receiver_cap
    && colbits_eq
  in
  let logic =
    (teq
    || pa.P.lmin_logic = pb.P.lmin_logic
       && pa.P.tox_logic = pb.P.tox_logic
       && pa.P.cj_logic = pb.P.cj_logic
       && pa.P.c_wire_signal = pb.P.c_wire_signal)
    && (deq || da.Domains.vint = db.Domains.vint)
    && logic_eq
  in
  (* Bit positions follow [C.group_index], like [group_keys]. *)
  (if wordline then 0 else 1 lsl C.group_index C.Wordline)
  lor (if sense_amp then 0 else 1 lsl C.group_index C.Sense_amp)
  lor (if column then 0 else 1 lsl C.group_index C.Column)
  lor (if bus then 0 else 1 lsl C.group_index C.Bus)
  lor (if interface then 0 else 1 lsl C.group_index C.Interface)
  lor (if logic then 0 else 1 lsl C.group_index C.Logic)

(* ----- the capacitance-extraction stage ---------------------------- *)

(* Every per-operation contribution list, stored as the per-group
   segments [Operation.segments] produced it from, with the supply
   energy of each contribution precomputed ([seg_terms]) and its
   breakdown label interned to a dense id ([seg_labels]).  The pattern
   mix (below) only reads this record, so evaluating several patterns
   against one configuration — or caching extractions behind a content
   key, as [Vdram_engine] does — never re-extracts; and because each
   segment carries its group, a delta extraction can splice the clean
   segments of a base extraction and recompute only the dirty ones. *)
type segment = {
  seg_group : int;          (* C.group_index of the producing group *)
  seg_contribs : C.t list;  (* original contribution chunk, in order *)
  seg_terms : float array;  (* supply energy (at Vdd) per contribution *)
  seg_labels : int array;   (* interned label ids, parallel to terms *)
  seg_domains : int;        (* bitmask of eff-bearing domains present *)
}

(* Which generator efficiency a term's value depends on: [at_vdd]
   divides by [eff_int]/[eff_bl]/[eff_pp] per domain, and by the
   constant 1.0 for Vdd — so a Vdd-only segment's terms are invariant
   under every efficiency change, and in general a segment is stale
   under an efficiency perturbation only if it holds a contribution in
   that efficiency's domain. *)
let domain_bit = function
  | Domains.Vdd -> 0
  | Domains.Vint -> 1
  | Domains.Vbl -> 2
  | Domains.Vpp -> 4

type extraction = {
  proj : Config.t;              (* physics projection extracted from *)
  proj_bits : int;              (* resolved activated page bits used *)
  effs : float * float * float; (* eff_int, eff_bl, eff_pp behind seg_terms *)
  segs : segment array array;   (* per operation, concatenation order *)
  labels : string array;        (* label intern table, first-appearance order *)
  sink_label : int;             (* "constant current sink" *)
  bias_label : int;             (* "input receiver bias" *)
  op_energy : float array;      (* per operation, Operation.index order *)
}

let const_sink_label = "constant current sink"
let const_bias_label = "input receiver bias"

let effs_of (d : Domains.t) =
  (d.Domains.eff_int, d.Domains.eff_bl, d.Domains.eff_pp)

let terms_of (d : Domains.t) contribs =
  let terms = Array.make (List.length contribs) 0.0 in
  let k = ref 0 in
  List.iter
    (fun (c : C.t) ->
      terms.(!k) <- Domains.at_vdd d c.C.domain c.C.energy;
      incr k)
    contribs;
  terms

(* Summing the precomputed terms segment by segment walks the same
   floats in the same order as [C.total_at_vdd] over the concatenated
   list, so the totals are bit-identical to the unsegmented model. *)
let resum_op segments =
  (* Manual loops: same floats in the same order as the folds they
     replace, without a closure call per term — the resum runs once per
     changed operation on the delta path, where it is a visible share
     of the whole splice.  The unsafe reads are bounded by the very
     lengths the loops iterate over. *)
  let acc = ref 0.0 in
  for i = 0 to Array.length segments - 1 do
    let t = (Array.unsafe_get segments i).seg_terms in
    for j = 0 to Array.length t - 1 do
      acc := !acc +. Array.unsafe_get t j
    done
  done;
  !acc

let resum_op_energy segs = Array.map resum_op segs

let resolve_bits ?activated_bits cfg =
  match activated_bits with
  | Some bits -> bits
  | None -> Config.activated_bits cfg

let extract ?activated_bits ?geometry (cfg : Config.t) =
  let d = cfg.Config.domains in
  let rev_labels = ref [] and nlabels = ref 0 in
  let ids = Hashtbl.create 32 in
  let intern label =
    match Hashtbl.find_opt ids label with
    | Some i -> i
    | None ->
      let i = !nlabels in
      incr nlabels;
      Hashtbl.add ids label i;
      rev_labels := label :: !rev_labels;
      i
  in
  let seg_of group contribs =
    {
      seg_group = C.group_index group;
      seg_contribs = contribs;
      seg_terms = terms_of d contribs;
      seg_labels =
        Array.map (fun (c : C.t) -> intern c.C.label) (Array.of_list contribs);
      seg_domains =
        List.fold_left
          (fun m (c : C.t) -> m lor domain_bit c.C.domain)
          0 contribs;
    }
  in
  (* One chunk prelude shared by all five operations, exactly as the
     delta path does: the per-logic-block table inside it is then
     computed once for the whole extraction. *)
  let x = Operation.ctx ?activated_bits ?geometry cfg in
  let segs =
    Array.init Operation.n (fun i ->
        let kind = Operation.of_index i in
        Array.mapi
          (fun j group -> seg_of group (Operation.chunk x kind j))
          (Operation.plan kind))
  in
  let sink_label = intern const_sink_label in
  let bias_label = intern const_bias_label in
  {
    proj = physics_projection cfg;
    proj_bits = resolve_bits ?activated_bits cfg;
    effs = effs_of d;
    segs;
    labels = Array.of_list (List.rev !rev_labels);
    sink_label;
    bias_label;
    op_energy = resum_op_energy segs;
  }

let extraction_contributions ex kind =
  Array.to_list ex.segs.(Operation.index kind)
  |> List.concat_map (fun s -> s.seg_contribs)

let extraction_energy ex kind = ex.op_energy.(Operation.index kind)

let group_key ex group =
  let keys = group_keys ~activated_bits:ex.proj_bits ex.proj in
  Digest.to_hex (Digest.string (marshal_key keys.(C.group_index group)))

(* ----- delta extraction -------------------------------------------- *)

type delta_outcome = {
  dirtied : C.group list;  (* groups re-extracted, group_index order *)
  spliced : int;           (* clean groups shared from the base *)
  fallback : bool;         (* structural mismatch forced a full extract *)
}

exception Splice_mismatch

let extract_delta ?activated_bits ?geometry ~base (cfg : Config.t) =
  let d = cfg.Config.domains in
  let bits = resolve_bits ?activated_bits cfg in
  let proj = physics_projection cfg in
  let gb =
    match geometry with Some g -> g | None -> Config.geometry cfg
  in
  (* [Config.geometry] is a field read.  A perturbation that leaves
     the floorplan alone usually shares the very record, so [==]
     settles the comparison before the structural walk. *)
  let geometry_eq =
    let ga = Config.geometry base.proj in
    ga == gb || ga = gb
  in
  let dirty_mask =
    dirty_groups ~base_bits:base.proj_bits ~bits ~geometry_eq base.proj cfg
  in
  let effs = effs_of d in
  (* Which efficiencies actually moved, as a domain mask: a segment's
     terms are stale only if it holds a contribution in a moved
     efficiency's domain (float [=] is false on NaN, erring toward
     stale).  An empty mask is exactly [effs = base.effs]. *)
  let eff_mask =
    let bi, bb, bp = base.effs and ei, eb, ep = effs in
    (if ei = bi then 0 else domain_bit Domains.Vint)
    lor (if eb = bb then 0 else domain_bit Domains.Vbl)
    lor (if ep = bp then 0 else domain_bit Domains.Vpp)
  in
  let effs_equal = eff_mask = 0 in
  let eff_stale s = s.seg_domains land eff_mask <> 0 in
  let dirtied =
    List.filter
      (fun g -> dirty_mask land (1 lsl C.group_index g) <> 0)
      C.groups
  in
  let spliced = C.group_count - List.length dirtied in
  if dirtied = [] && effs_equal then
    (* Nothing the extraction reads changed: share the base's segments
       outright (the perturbation only touched mix-stage inputs); only
       the stored projection is the new configuration's. *)
    ({ base with proj; proj_bits = bits }, { dirtied = []; spliced; fallback = false })
  else
    try
      (* A dirtied segment keeps the base's label ids so the spliced
         segments' ids stay meaningful; re-extraction changes
         energies, never label sequences, so position-for-position
         equality against the base's labels is the cheap check,
         fused with the supply-energy recompute.  A genuine mismatch
         (e.g. a renamed logic block the predicates somehow called
         clean) abandons the splice for a full extract — delta is an
         optimization, never a semantic. *)
      let rebuild_seg (b : segment) contribs =
        let labels = b.seg_labels in
        let n = Array.length labels in
        let terms = Array.make n 0.0 in
        (* Manual recursion instead of [List.iter]: no closure per
           rebuilt chunk, and the [k >= n] guard bounds the unsafe
           reads and writes. *)
        let rec fill k mask = function
          | [] -> if k <> n then raise Splice_mismatch else mask
          | (c : C.t) :: tl ->
            if k >= n then raise Splice_mismatch;
            if
              not
                (String.equal c.C.label
                   base.labels.(Array.unsafe_get labels k))
            then raise Splice_mismatch;
            Array.unsafe_set terms k (Domains.at_vdd d c.C.domain c.C.energy);
            fill (k + 1) (mask lor domain_bit c.C.domain) tl
        in
        let mask = fill 0 0 contribs in
        {
          seg_group = b.seg_group;
          seg_contribs = contribs;
          seg_terms = terms;
          seg_labels = labels;
          seg_domains = mask;
        }
      in
      (* The chunk prelude is built once per perturbed configuration
         and shared by every dirtied chunk across all operations —
         lazily, because an efficiency-only delta re-divides cached
         terms without evaluating any chunk at all. *)
      let x = lazy (Operation.ctx ?activated_bits ~geometry:gb cfg) in
      let segs =
        Array.init Operation.n (fun i ->
            let bsegs = base.segs.(i) in
            let kind = Operation.of_index i in
            (* One [land] against the operation's static plan mask
               decides whether any of its chunks can be dirty — sound
               because every base this binary produced built its
               segments from the same plan (a marshalled base from a
               different build is rejected upstream by the store's
               model-version stamp). *)
            if Operation.plan_mask kind land dirty_mask = 0 then
              (* No dirty group reaches this operation: keep the base's
                 segment array — physically when the efficiencies allow,
                 so the per-op resum below can skip it too. *)
              if effs_equal || not (Array.exists eff_stale bsegs) then bsegs
              else
                Array.map
                  (fun b ->
                    if eff_stale b then
                      { b with seg_terms = terms_of d b.seg_contribs }
                    else b)
                  bsegs
            else begin
              let idx = Operation.plan_indices kind in
              if Array.length idx <> Array.length bsegs then
                raise Splice_mismatch;
              let out = Array.copy bsegs in
              (* The unsafe reads are bounded by the length equality
                 just checked. *)
              for j = 0 to Array.length idx - 1 do
                let b = Array.unsafe_get bsegs j in
                let gi = Array.unsafe_get idx j in
                if b.seg_group <> gi then raise Splice_mismatch;
                if dirty_mask land (1 lsl gi) <> 0 then
                  out.(j) <- rebuild_seg b (Operation.chunk (Lazy.force x) kind j)
                else if eff_stale b then
                  out.(j) <- { b with seg_terms = terms_of d b.seg_contribs }
              done;
              out
            end)
      in
      (* Shared segment arrays hold exactly the base's floats — whether
         spliced clean or untouched by the efficiency mask — so their
         resum is exactly the base's energy. *)
      let op_energy =
        Array.init Operation.n (fun i ->
            if segs.(i) == base.segs.(i) then base.op_energy.(i)
            else resum_op segs.(i))
      in
      ( {
          proj;
          proj_bits = bits;
          effs;
          segs;
          labels = base.labels;
          sink_label = base.sink_label;
          bias_label = base.bias_label;
          op_energy;
        },
        { dirtied; spliced; fallback = false } )
    with Splice_mismatch ->
      ( extract ?activated_bits ~geometry:gb cfg,
        { dirtied; spliced = 0; fallback = true } )

let background_power_staged ex (cfg : Config.t) =
  let spec = cfg.Config.spec in
  let nop = extraction_energy ex Operation.Nop in
  let d = cfg.Config.domains in
  (nop *. spec.Spec.control_clock)
  +. (d.Domains.i_constant *. d.Domains.vdd)
  +. receiver_bias_power cfg

(* Dense command counts of one loop iteration, [Operation.index]
   order.  [Nop] stays zero: its energy is the background floor. *)
let op_count_vector pattern =
  let v = Array.make Operation.n 0.0 in
  v.(Operation.index Operation.Activate) <-
    float_of_int (Pattern.count pattern Pattern.Act);
  v.(Operation.index Operation.Precharge) <-
    float_of_int (Pattern.count pattern Pattern.Pre);
  v.(Operation.index Operation.Read) <-
    float_of_int (Pattern.count pattern Pattern.Rd);
  v.(Operation.index Operation.Write) <-
    float_of_int (Pattern.count pattern Pattern.Wr);
  v

(* The pattern-mix stage: rates from the command loop times the
   extracted per-operation energies.  Bit-identical to evaluating the
   configuration directly: the extraction precomputed each
   contribution's supply energy ([seg_terms]) with the same division
   the direct path performs, and the flat kernels below accumulate
   those terms in the same program order the contribution lists had —
   zero-count operations are skipped outright, exactly as the assoc
   walk skipped them, so the float operation sequence is unchanged.
   Only the ordering of exact ties in the breakdown listing may differ
   from the hash-table formulation this kernel replaced. *)
let pattern_power_staged ex (cfg : Config.t) pattern =
  let spec = cfg.Config.spec in
  let d = cfg.Config.domains in
  let loop_time = loop_time spec pattern in
  let counts = op_count_vector pattern in
  let background = background_power_staged ex cfg in
  let op_power = ref 0.0 in
  for i = 0 to Operation.n - 1 do
    let count = counts.(i) in
    if count > 0.0 then
      op_power := !op_power +. (count *. ex.op_energy.(i) /. loop_time)
  done;
  let power = background +. !op_power in
  (* Breakdown: per-label energies at Vdd times their rates, plus the
     background groups at the clock rate — accumulated into a flat
     per-label-id array instead of a hash table. *)
  let nlabels = Array.length ex.labels in
  let acc = Array.make nlabels 0.0 in
  let touched = Array.make nlabels false in
  let add_segments rate segments =
    Array.iter
      (fun s ->
        let terms = s.seg_terms and labs = s.seg_labels in
        for k = 0 to Array.length terms - 1 do
          let l = labs.(k) in
          acc.(l) <- acc.(l) +. (rate *. terms.(k));
          touched.(l) <- true
        done)
      segments
  in
  for i = 0 to Operation.n - 1 do
    let count = counts.(i) in
    if count > 0.0 then add_segments (count /. loop_time) ex.segs.(i)
  done;
  add_segments spec.Spec.control_clock
    ex.segs.(Operation.index Operation.Nop);
  let add l w =
    acc.(l) <- acc.(l) +. w;
    touched.(l) <- true
  in
  add ex.sink_label (d.Domains.i_constant *. d.Domains.vdd);
  add ex.bias_label (receiver_bias_power cfg);
  let breakdown = ref [] in
  for l = nlabels - 1 downto 0 do
    if touched.(l) then breakdown := (ex.labels.(l), acc.(l)) :: !breakdown
  done;
  let breakdown =
    List.sort (fun (_, a) (_, b) -> Float.compare b a) !breakdown
  in
  let bits_per_loop = bits_per_loop spec pattern in
  let energy_per_bit =
    if bits_per_loop > 0.0 then Some (power *. loop_time /. bits_per_loop)
    else None
  in
  {
    Report.config_name = cfg.Config.name;
    pattern_name = pattern.Pattern.name;
    power;
    current = power /. d.Domains.vdd;
    background_power = background;
    loop_time;
    bits_per_loop;
    energy_per_bit;
    op_rates =
      List.filter_map
        (fun kind ->
          let count = counts.(Operation.index kind) in
          if count > 0.0 then Some (kind, count /. loop_time) else None)
        Operation.all;
    breakdown;
  }

let pattern_power (cfg : Config.t) pattern =
  pattern_power_staged (extract cfg) cfg pattern

let idd cfg pattern = (pattern_power cfg pattern).Report.current

let operation_power (cfg : Config.t) kind =
  let spec = cfg.Config.spec in
  match kind with
  | Operation.Nop -> background_power cfg
  | Operation.Activate | Operation.Precharge ->
    let rate = 1.0 /. spec.Spec.trc in
    background_power cfg +. (Operation.energy cfg kind *. rate)
  | Operation.Read | Operation.Write ->
    let rate =
      spec.Spec.control_clock
      /. float_of_int (Spec.clocks_per_column_command spec)
    in
    background_power cfg +. (Operation.energy cfg kind *. rate)

let energy_per_bit cfg pattern =
  (pattern_power cfg pattern).Report.energy_per_bit
