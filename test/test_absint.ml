(* Abstract interpretation layer: interval domain soundness, per-stage
   containment of concrete evaluations, bound certificates against
   random sweeps, monotonicity certificates. *)

module I = Vdram_units.Interval
module Abox = Vdram_absint.Abox
module Aeval = Vdram_absint.Aeval
module Bounds = Vdram_absint.Bounds
module Monotone = Vdram_absint.Monotone
module Certificate = Vdram_absint.Certificate
module Lenses = Vdram_analysis.Lenses
module Config = Vdram_core.Config
module Model = Vdram_core.Model
module Report = Vdram_core.Report
module Operation = Vdram_core.Operation
module Pattern = Vdram_core.Pattern
module C = Vdram_circuits.Contribution

let base () = Lazy.force Helpers.ddr3_1g

let patterns cfg =
  let spec = cfg.Config.spec in
  [
    Pattern.idd0 spec;
    Pattern.idd4r spec;
    Pattern.idd4w spec;
    Pattern.idd7_mixed spec;
    Pattern.idle;
  ]

(* ----- interval arithmetic soundness ------------------------------- *)

(* An interval plus a member: endpoints from a wide float range, the
   member interpolated between them. *)
let member_gen =
  QCheck.Gen.(
    let* lo = float_range (-1e6) 1e6 in
    let* w = float_range 0.0 1e6 in
    let* t = float_range 0.0 1.0 in
    let hi = lo +. w in
    let x = lo +. (t *. (hi -. lo)) in
    let x = Float.max lo (Float.min hi x) in
    return (I.v lo hi, x))

let interval_member =
  QCheck.make
    ~print:(fun (i, x) -> Printf.sprintf "%s ∋ %.17g" (I.to_string i) x)
    member_gen

let test_interval_ops =
  QCheck.Test.make ~name:"interval ops contain concrete results"
    ~count:2000
    (QCheck.pair interval_member interval_member)
    (fun ((a, x), (b, y)) ->
      I.contains (I.add a b) (x +. y)
      && I.contains (I.sub a b) (x -. y)
      && I.contains (I.mul a b) (x *. y)
      && I.contains (I.div a b) (x /. y)
      && I.contains (I.sq a) (x *. x)
      && I.contains (I.neg a) (-.x)
      && I.contains (I.min_ a b) (Float.min x y)
      && I.contains (I.max_ a b) (Float.max x y))

let test_interval_basics () =
  Helpers.check_true "top contains nan" (I.contains I.top Float.nan);
  Helpers.check_true "point is point" (I.is_point (I.point 3.0));
  Helpers.check_true "div by zero-crossing is top"
    (I.is_top (I.div I.one (I.v (-1.0) 1.0)));
  Helpers.check_true "hull contains both"
    (let h = I.hull (I.point 1.0) (I.point 2.0) in
     I.contains h 1.0 && I.contains h 2.0);
  let a, b = I.split (I.v 0.0 4.0) in
  Helpers.check_true "split covers"
    (I.contains a 1.0 && I.contains b 3.0 && (a : I.t).hi = (b : I.t).lo)

(* Outward rounding steps the bit pattern; the reference is two
   library steps on finite doubles, infinities and NaN kept. *)
let test_rounding_steps =
  let reference step x = if Float.is_finite x then step (step x) else x in
  let same a b =
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    || (Float.is_nan a && Float.is_nan b)
  in
  let specials =
    [ 0.0; -0.0; 5e-324; -5e-324; Float.max_float; -.Float.max_float;
      Float.infinity; Float.neg_infinity; Float.nan ]
  in
  QCheck.Test.make ~name:"interval rounding steps two ulps" ~count:5000
    QCheck.(
      make ~print:(fun x -> Printf.sprintf "%h" x)
        Gen.(
          oneof
            [ oneofl specials;
              map Int64.float_of_bits
                (map2
                   (fun hi lo ->
                     Int64.logor (Int64.shift_left (Int64.of_int hi) 32)
                       (Int64.of_int lo))
                   (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF)) ]))
    (fun x ->
      same (I.down x) (reference Float.pred x)
      && same (I.up x) (reference Float.succ x))

(* ----- boxes and per-stage containment ----------------------------- *)

(* The seven shipped devices.  Three have folded bitlines (sdr_128m,
   ddr_256m, ddr2_1g at 75 nm), which alone carry the bitline
   multiplexer's gate load and junction. *)
let shipped_devices =
  lazy
    (let module D = Vdram_configs.Devices in
     let open Vdram_tech.Node in
     [| D.sdr_128m; D.ddr_256m; D.ddr2_1g ~node:N75 (); D.ddr3_1g ~node:N65 ();
        D.ddr3_2g; D.ddr4_4g; D.ddr5_16g |])

(* A random box over the stock lens inventory plus a concrete member:
   a shipped device as the base, 1–4 distinct axes, each over a random
   sub-range of (0.7, 1.3), and one scale inside each. *)
let box_gen =
  QCheck.Gen.(
    let lenses = Array.of_list Lenses.all in
    let* dev = int_bound 6 in
    let* n = int_range 1 4 in
    let* idxs =
      List.init n (fun _ -> int_bound (Array.length lenses - 1))
      |> flatten_l
    in
    let idxs = List.sort_uniq compare idxs in
    let* specs =
      flatten_l
        (List.map
           (fun i ->
             let* lo = float_range 0.7 1.0 in
             let* w = float_range 0.0 0.3 in
             let* t = float_range 0.0 1.0 in
             let hi = lo +. w in
             let s = lo +. (t *. (hi -. lo)) in
             let s = Float.max lo (Float.min hi s) in
             return (lenses.(i), lo, hi, s))
           idxs)
    in
    let* p = int_bound 4 in
    return (dev, specs, p))

let box_case =
  QCheck.make
    ~print:(fun (dev, specs, p) ->
      (Lazy.force shipped_devices).(dev).Config.name ^ ": "
      ^ String.concat "; "
        (List.map
           (fun ((l : Lenses.t), lo, hi, s) ->
             Printf.sprintf "%s in [%g,%g] at %g" l.Lenses.name lo hi s)
           specs)
      ^ Printf.sprintf " (pattern %d)" p)
    box_gen

let stage_containment (dev, specs, p) =
  let cfg = (Lazy.force shipped_devices).(dev) in
  let axes =
    List.map (fun (lens, lo, hi, _) -> Abox.axis lens ~lo ~hi) specs
  in
  let scales = List.map (fun (_, _, _, s) -> s) specs in
  let box = Abox.v ~base:cfg axes in
  let concrete = Abox.instantiate box scales in
  let pattern = List.nth (patterns cfg) p in
  let stages = Aeval.analyze box pattern in
  (* Stage 1: every contribution of every operation. *)
  List.iter
    (fun (kind, abs_cs) ->
      let conc_cs = Operation.contributions concrete kind in
      if List.length conc_cs <> List.length abs_cs then
        Alcotest.failf "%s: contribution count mismatch"
          (Operation.name kind);
      List.iter2
        (fun (c : C.t) (a : Aeval.contribution) ->
          if c.C.label <> a.Aeval.label then
            Alcotest.failf "%s: label %s vs %s" (Operation.name kind)
              c.C.label a.Aeval.label;
          if not (I.contains a.Aeval.energy c.C.energy) then
            Alcotest.failf "%s/%s: %.17g outside %s" (Operation.name kind)
              c.C.label c.C.energy
              (I.to_string a.Aeval.energy))
        conc_cs abs_cs)
    stages.Aeval.op_contributions;
  (* Stage 2: per-operation energies at Vdd. *)
  List.iter
    (fun (kind, interval) ->
      let e = Operation.energy concrete kind in
      if not (I.contains interval e) then
        Alcotest.failf "energy %s: %.17g outside %s" (Operation.name kind)
          e (I.to_string interval))
    stages.Aeval.op_energy;
  (* Stage 3: background power. *)
  let bg = Model.background_power concrete in
  if not (I.contains stages.Aeval.background bg) then
    Alcotest.failf "background: %.17g outside %s" bg
      (I.to_string stages.Aeval.background);
  (* Stage 4: the pattern mix. *)
  let report = Model.pattern_power concrete pattern in
  if not (I.contains stages.Aeval.power report.Report.power) then
    Alcotest.failf "power: %.17g outside %s" report.Report.power
      (I.to_string stages.Aeval.power);
  if not (I.contains stages.Aeval.current report.Report.current) then
    Alcotest.failf "current: %.17g outside %s" report.Report.current
      (I.to_string stages.Aeval.current);
  (match (stages.Aeval.energy_per_bit, report.Report.energy_per_bit) with
   | Some interval, Some e ->
     if not (I.contains interval e) then
       Alcotest.failf "energy/bit: %.17g outside %s" e
         (I.to_string interval)
   | None, None -> ()
   | _ -> Alcotest.fail "energy/bit: abstract and concrete disagree");
  (* The metric-only evaluation behind the monotonicity cells gives
     the full pipeline's power and energy per bit, bit for bit. *)
  let same_bits a b =
    match (a, b) with
    | Some (x : I.t), Some (y : I.t) ->
      Int64.equal (Int64.bits_of_float x.lo) (Int64.bits_of_float y.lo)
      && Int64.equal (Int64.bits_of_float x.hi) (Int64.bits_of_float y.hi)
    | None, None -> true
    | _ -> false
  in
  same_bits (Aeval.metric box pattern Aeval.Power) (Some stages.Aeval.power)
  && same_bits
       (Aeval.metric box pattern Aeval.Energy_per_bit)
       stages.Aeval.energy_per_bit

let test_stage_containment =
  QCheck.Test.make
    ~name:"concrete evaluation inside abstract bounds at every stage"
    ~count:150 box_case stage_containment

let test_field_exact () =
  let cfg = base () in
  let lens = List.hd Lenses.voltages in
  let box = Abox.v ~base:cfg [ Abox.axis lens ~lo:0.9 ~hi:1.1 ] in
  let vdd c = c.Config.domains.Vdram_circuits.Domains.vdd in
  let i = Abox.field box vdd in
  let nominal = vdd cfg in
  Helpers.check_true "endpoints are the corner evaluations"
    ((i : I.t).lo = nominal *. 0.9 && (i : I.t).hi = nominal *. 1.1);
  (* A field no axis moves stays a point. *)
  let j =
    Abox.field box (fun c -> c.Config.tech.Vdram_tech.Params.c_bitline)
  in
  Helpers.check_true "untouched field is a point" (I.is_point j)

let test_instantiate_validates () =
  let cfg = base () in
  let lens = List.hd Lenses.voltages in
  let box = Abox.v ~base:cfg [ Abox.axis lens ~lo:0.9 ~hi:1.1 ] in
  (match Abox.instantiate box [ 1.5 ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "scale outside axis accepted");
  match Abox.v ~base:cfg [ Abox.axis lens ~lo:0.9 ~hi:1.1;
                           Abox.axis lens ~lo:0.9 ~hi:1.1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate axes accepted"

(* ----- bound refinement -------------------------------------------- *)

let test_refinement_tightens () =
  let cfg = base () in
  let pattern = Pattern.idd7_mixed cfg.Config.spec in
  let axes = List.map Abox.default_axis Lenses.voltages in
  let box = Abox.v ~base:cfg axes in
  let coarse = Bounds.compute ~splits:0 box pattern in
  let fine = Bounds.compute ~splits:3 box pattern in
  Helpers.check_true "refined power bound inside coarse bound"
    (I.subset fine.Bounds.power coarse.Bounds.power);
  Helpers.check_true "refinement evaluated several pieces"
    (fine.Bounds.pieces > 1);
  (* Power is corner-exact (every factor enters monotonically), so
     tightening shows where interval dependency bites: the current,
     whose Vdd appears in both numerator and denominator. *)
  Helpers.check_true "refined current bound strictly tighter"
    (I.width fine.Bounds.current < I.width coarse.Bounds.current)

(* ----- certificates against a random sweep ------------------------- *)

(* The acceptance check: bounds over the example device's certified
   lens ranges contain the concrete results of a 1000-sample random
   sweep. *)
let certificate_config () =
  (* dune runtest runs in _build/default/test; dune exec from the
     workspace root. *)
  let candidates =
    [ "../examples/ddr3_1gb.dram"; "examples/ddr3_1gb.dram" ]
  in
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> Alcotest.fail "examples/ddr3_1gb.dram missing from test deps"
  in
  match Vdram_dsl.Elaborate.load_file path with
  | Error e ->
    Alcotest.failf "%s: %s" path
      (Format.asprintf "%a" Vdram_dsl.Parser.pp_error e)
  | Ok elab -> elab.Vdram_dsl.Elaborate.config

let test_certificate_contains_sweep () =
  let cfg = certificate_config () in
  let pattern = Pattern.idd7_mixed cfg.Config.spec in
  let axes =
    List.map Abox.default_axis (Lenses.voltages @ Lenses.interface)
  in
  let box = Abox.v ~base:cfg axes in
  let bounds = Bounds.compute ~splits:4 box pattern in
  let rng = Random.State.make [| 0x5eed |] in
  let samples = 1000 in
  for _ = 1 to samples do
    let scales =
      List.map
        (fun (a : Abox.axis) ->
          let s = a.Abox.scale in
          (s : I.t).lo
          +. (Random.State.float rng 1.0 *. ((s : I.t).hi -. (s : I.t).lo)))
        (Abox.axes box)
    in
    let concrete = Abox.instantiate box scales in
    let report = Model.pattern_power concrete pattern in
    if not (I.contains bounds.Bounds.power report.Report.power) then
      Alcotest.failf "sampled power %.17g outside certified %s"
        report.Report.power
        (I.to_string bounds.Bounds.power);
    if not (I.contains bounds.Bounds.current report.Report.current) then
      Alcotest.failf "sampled current %.17g outside certified %s"
        report.Report.current
        (I.to_string bounds.Bounds.current);
    match (bounds.Bounds.energy_per_bit, report.Report.energy_per_bit) with
    | Some interval, Some e ->
      if not (I.contains interval e) then
        Alcotest.failf "sampled energy/bit %.17g outside certified %s" e
          (I.to_string interval)
    | _ -> Alcotest.fail "energy/bit missing for a data pattern"
  done;
  (* The certified envelope is useful, not vacuous: within a factor
     of two of the nominal on both sides. *)
  let nominal = (Model.pattern_power cfg pattern).Report.power in
  Helpers.check_true "lower bound within 2x of nominal"
    ((bounds.Bounds.power : I.t).lo > nominal /. 2.0);
  Helpers.check_true "upper bound within 2x of nominal"
    ((bounds.Bounds.power : I.t).hi < nominal *. 2.0)

let test_certificate_json () =
  let cfg = base () in
  let pattern = Pattern.idd7_mixed cfg.Config.spec in
  let axes = List.map Abox.default_axis Lenses.voltages in
  let box = Abox.v ~base:cfg axes in
  let bounds = Bounds.compute ~splits:2 box pattern in
  let mono =
    [
      Monotone.certify ~base:cfg ~lens:(List.hd Lenses.voltages) ~lo:0.9
        ~hi:1.1 ~metric:Monotone.Power pattern;
    ]
  in
  let cert =
    Certificate.v ~config:cfg ~pattern ~box ~splits:2 ~bounds
      ~monotonicity:mono ()
  in
  let module Json = Vdram_json.Json in
  match Json.parse (Certificate.to_json cert) with
  | Error e -> Alcotest.failf "certificate JSON does not parse: %s" e
  | Ok json ->
    List.iter
      (fun key ->
        Helpers.check_true
          (Printf.sprintf "certificate JSON has %s" key)
          (Json.mem key json <> None))
      [ "certificate_version"; "monotonicity"; "bounds"; "model_version";
        "axes" ];
    (* %.17g reads back as the exact double certified. *)
    let lo =
      List.fold_left (fun j k -> Option.bind j (Json.mem k)) (Some json)
        [ "bounds"; "power"; "lo" ]
    in
    Alcotest.(check (option (float 0.))) "power bound round-trips"
      (Some (bounds.Bounds.power : I.t).lo) (Option.bind lo Json.num)

(* ----- monotonicity ------------------------------------------------ *)

let test_monotone_vdd () =
  let cfg = base () in
  let pattern = Pattern.idd7_mixed cfg.Config.spec in
  let lens =
    match Lenses.find "external voltage Vdd" with
    | Some l -> l
    | None -> Alcotest.fail "Vdd lens missing"
  in
  let cert =
    Monotone.certify ~base:cfg ~lens ~lo:0.9 ~hi:1.1
      ~metric:Monotone.Power pattern
  in
  (match cert.Monotone.direction with
   | Some Monotone.Increasing -> ()
   | Some Monotone.Decreasing ->
     Alcotest.fail "power certified decreasing in Vdd"
   | None -> Alcotest.fail "power vs Vdd not certified");
  Helpers.check_true "resolution positive"
    (cert.Monotone.resolution > 0.0);
  (* The certified semantics, sampled: scales at least one resolution
     apart are ordered. *)
  let f s =
    (Model.pattern_power (Lenses.scale lens s cfg) pattern).Report.power
  in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 100 do
    let x = 0.9 +. Random.State.float rng (0.2 -. cert.Monotone.resolution) in
    let y = x +. cert.Monotone.resolution in
    if f x > f y then
      Alcotest.failf "certified ordering violated at %g < %g" x y
  done

let test_monotone_interface () =
  let cfg = base () in
  let pattern = Pattern.idd4r cfg.Config.spec in
  let lens =
    match Lenses.find "DQ pre-driver load" with
    | Some l -> l
    | None -> Alcotest.fail "DQ pre-driver lens missing"
  in
  let cert =
    Monotone.certify ~base:cfg ~lens ~lo:0.8 ~hi:1.2
      ~metric:Monotone.Energy_per_bit pattern
  in
  match cert.Monotone.direction with
  | Some Monotone.Increasing -> ()
  | _ -> Alcotest.fail "energy/bit not certified increasing in DQ load"

(* ----- monotonicity: every partition against the early exit ------- *)

(* The certifier without its flat-axis exit: every partition from 4
   up to [max_cells] evaluated through the full [Aeval.analyze]. *)
let reference_certify ~max_cells ~base ~(lens : Lenses.t) ~lo ~hi ~metric
    pattern =
  let certificate direction cells =
    {
      Monotone.lens = lens.Lenses.name;
      group = lens.Lenses.group;
      metric;
      lo;
      hi;
      direction;
      cells;
      resolution = 2.0 *. ((hi -. lo) /. float_of_int cells);
    }
  in
  let concrete s =
    let r = Model.pattern_power (Lenses.scale lens s base) pattern in
    match metric with
    | Monotone.Power -> Some r.Report.power
    | Monotone.Energy_per_bit -> r.Report.energy_per_bit
  in
  let abstract a b =
    let s = Aeval.analyze (Abox.v ~base [ Abox.axis lens ~lo:a ~hi:b ]) pattern in
    match metric with
    | Monotone.Power -> Some s.Aeval.power
    | Monotone.Energy_per_bit -> s.Aeval.energy_per_bit
  in
  match (concrete lo, concrete hi) with
  | Some at_lo, Some at_hi ->
    let direction =
      if at_lo <= at_hi then Monotone.Increasing else Monotone.Decreasing
    in
    let ordered (a : I.t) (b : I.t) =
      match direction with
      | Monotone.Increasing -> a.hi <= b.lo
      | Monotone.Decreasing -> b.hi <= a.lo
    in
    let rec refine cells =
      if cells > max_cells then certificate None max_cells
      else
        let at i =
          lo +. ((hi -. lo) *. (float_of_int i /. float_of_int cells))
        in
        let cell k =
          abstract
            (if k = 0 then lo else at k)
            (if k = cells - 1 then hi else at (k + 1))
        in
        let intervals = List.init cells cell in
        if
          List.exists
            (function Some i -> not (I.is_finite i) | None -> true)
            intervals
        then certificate None cells
        else
          let iv = Array.of_list (List.map Option.get intervals) in
          if List.for_all (fun k -> ordered iv.(k) iv.(k + 2))
               (List.init (cells - 2) Fun.id)
          then certificate (Some direction) cells
          else refine (2 * cells)
    in
    refine 4
  | _ -> certificate None 4

let shipped_configs () =
  let module D = Vdram_configs.Devices in
  let n65 = Vdram_tech.Node.N65 in
  [ D.sdr_128m; D.ddr_256m; D.ddr2_1g ~node:n65 (); D.ddr3_1g ~node:n65 ();
    D.ddr3_2g; D.ddr4_4g; D.ddr5_16g ]

let metric_of p =
  if Pattern.count p Pattern.Rd + Pattern.count p Pattern.Wr > 0 then
    Monotone.Energy_per_bit
  else Monotone.Power

let lens_named name =
  match Lenses.find name with
  | Some l -> l
  | None -> Alcotest.failf "lens %S missing" name

let check_against_reference ?(max_cells = 32) ~base ~lens ~lo ~hi pattern =
  let metric = metric_of pattern in
  let got =
    Monotone.certify ~max_cells ~base ~lens ~lo ~hi ~metric pattern
  in
  let want =
    reference_certify ~max_cells ~base ~lens ~lo ~hi ~metric pattern
  in
  if got <> want then
    Alcotest.failf "%s over [%.17g, %.17g] on %s/%s: %s at %d cells, \
                    reference %s at %d"
      lens.Lenses.name lo hi base.Config.name pattern.Pattern.name
      (match got.Monotone.direction with
       | Some d -> Monotone.direction_name d
       | None -> "null")
      got.Monotone.cells
      (match want.Monotone.direction with
       | Some d -> Monotone.direction_name d
       | None -> "null")
      want.Monotone.cells;
  got

(* Random sub-ranges of every default axis, every test pattern, every
   shipped configuration; then the pairs whose metric never reads the
   axis, which take the early exit; then a lens whose chain closes only
   on a finer partition, where the certifier must refine, not exit. *)
let test_monotone_reference () =
  let rng = Random.State.make [| 0x0ce115 |] in
  List.iter
    (fun base ->
      List.iter
        (fun (lens : Lenses.t) ->
          List.iter
            (fun pattern ->
              let rlo, rhi = lens.Lenses.range in
              let draw () = rlo +. Random.State.float rng (rhi -. rlo) in
              let a = draw () and b = draw () in
              let max_cells = if Random.State.bool rng then 32 else 5 in
              ignore
                (check_against_reference ~max_cells ~base ~lens
                   ~lo:(Float.min a b) ~hi:(Float.max a b) pattern))
            (patterns base))
        (Lenses.voltages @ Lenses.interface))
    (shipped_configs ());
  List.iter
    (fun base ->
      let spec = base.Config.spec in
      List.iter
        (fun (name, pattern) ->
          let lens = lens_named name in
          let lo, hi = lens.Lenses.range in
          let box = Abox.v ~base [ Abox.default_axis lens ] in
          ignore (Aeval.metric box pattern (metric_of pattern));
          if Abox.moved box then
            Alcotest.failf "%s moved a field %s reads" name
              pattern.Pattern.name;
          let c = check_against_reference ~base ~lens ~lo ~hi pattern in
          Helpers.check_true
            (Printf.sprintf "%s under %s is exhausted" name
               pattern.Pattern.name)
            (c.Monotone.direction = None && c.Monotone.cells = 32))
        [ ("DQ receiver load", Pattern.idd4r spec);
          ("wordline voltage Vpp", Pattern.idd4r spec);
          ("data toggle rate", Pattern.idd0 spec) ])
    (shipped_configs ());
  (* Vint rises as the square of the scale and its generator
     efficiency with the scale: the two reads pull each Vint energy
     opposite ways, and interval dependency widens every cell until
     the partition is fine enough. *)
  let module Domains = Vdram_circuits.Domains in
  let lens =
    {
      Lenses.name = "Vint squared with its efficiency";
      group = Lenses.Voltage;
      range = (0.2, 5.0);
      dirties = [];
      get = (fun _ -> 1.0);
      set =
        (fun cfg f ->
          let d = cfg.Config.domains in
          Config.with_domains cfg
            {
              d with
              Domains.vint = d.Domains.vint *. f *. f;
              eff_int = d.Domains.eff_int *. f;
            });
    }
  in
  let base = Lazy.force Helpers.sdr_128m in
  List.iter
    (fun pattern ->
      let c =
        check_against_reference ~base ~lens ~lo:0.2 ~hi:5.0 pattern
      in
      Helpers.check_true
        (Printf.sprintf "%s certified past four cells" pattern.Pattern.name)
        (c.Monotone.direction <> None && c.Monotone.cells > 4))
    (patterns base)

(* ----- golden physics digests ------------------------------------- *)

(* The seven shipped devices and the commodity device of every node and
   I/O width. *)
let digest_devices () =
  Array.to_list (Lazy.force shipped_devices)
  @ List.concat_map
      (fun node ->
        List.map
          (fun io_width -> Config.commodity ~io_width ~node ())
          [ 4; 8; 16 ])
      Vdram_tech.Node.all

(* Every concrete contribution and pattern power, and every abstract
   contribution and power bound on the default box, printed exactly
   (%h) and hashed: a change to either digest is a change to the
   numbers the model or [vdram check] computes. *)
let test_golden_digests () =
  let concrete = Buffer.create 65536 and abstract = Buffer.create 65536 in
  let axes = List.map Abox.default_axis (Lenses.voltages @ Lenses.interface) in
  List.iter
    (fun cfg ->
      List.iter
        (fun kind ->
          List.iter
            (fun (c : C.t) ->
              Printf.bprintf concrete "%s %s %h\n" (Operation.name kind)
                c.C.label c.C.energy)
            (Operation.contributions cfg kind))
        Operation.all;
      let box = Abox.v ~base:cfg axes in
      List.iter
        (fun pattern ->
          Printf.bprintf concrete "%s %h\n" pattern.Pattern.name
            (Model.pattern_power cfg pattern).Report.power;
          let s = Aeval.analyze box pattern in
          List.iter
            (fun (kind, cs) ->
              List.iter
                (fun (a : Aeval.contribution) ->
                  let e = a.Aeval.energy in
                  Printf.bprintf abstract "%s %s %h %h\n" (Operation.name kind)
                    a.Aeval.label (e : I.t).lo (e : I.t).hi)
                cs)
            s.Aeval.op_contributions;
          Printf.bprintf abstract "%s %h %h\n" pattern.Pattern.name
            (s.Aeval.power : I.t).lo (s.Aeval.power : I.t).hi)
        (patterns cfg))
    (digest_devices ());
  let check what want buf =
    let got = Digest.to_hex (Digest.string (Buffer.contents buf)) in
    if got <> want then
      Alcotest.failf
        "%s digest %s, want %s: the physics changed; if that was \
         intended, bump Model.version and update the digest"
        what got want
  in
  check "concrete" "f99c887c2514e9e51c4afee3d5116e8a" concrete;
  check "abstract" "9beaba94d2e000b58196173c19da7755" abstract

let suite =
  [
    Alcotest.test_case "interval basics" `Quick test_interval_basics;
    Helpers.qcheck test_interval_ops;
    Helpers.qcheck test_stage_containment;
    Alcotest.test_case "field ranges exact" `Quick test_field_exact;
    Alcotest.test_case "box validation" `Quick test_instantiate_validates;
    Alcotest.test_case "refinement tightens" `Quick
      test_refinement_tightens;
    Alcotest.test_case "certificate contains 1000-sample sweep" `Quick
      test_certificate_contains_sweep;
    Alcotest.test_case "certificate JSON" `Quick test_certificate_json;
    Alcotest.test_case "monotone: power vs Vdd" `Quick test_monotone_vdd;
    Alcotest.test_case "monotone: energy/bit vs DQ load" `Quick
      test_monotone_interface;
    Helpers.qcheck test_rounding_steps;
    Alcotest.test_case "monotone: certify equals full refinement" `Quick
      test_monotone_reference;
    Alcotest.test_case "golden physics digests" `Quick test_golden_digests;
  ]
