(* Monte-Carlo process/vendor spread over the parameter lenses. *)

module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Engine = Vdram_engine.Engine
module Supervise = Vdram_engine.Supervise

type distribution = {
  samples : int;
  failed : int;
  spread : float;
  mean : float;
  std : float;
  min : float;
  max : float;
  p05 : float;
  p95 : float;
}

(* The same deterministic LCG the simulator uses. *)
type rng = { mutable state : int64 }

let next r =
  r.state <-
    Int64.add (Int64.mul r.state 6364136223846793005L) 1442695040888963407L;
  Int64.to_int (Int64.shift_right_logical r.state 17)

let next_float r = float_of_int (next r mod 1_000_000) /. 1_000_000.0

(* Lenses that represent physical vendor-to-vendor variation: the
   technology parameters, the internal voltages and efficiencies, and
   the logic aggregates.  The external supply is a specification, not
   a corner.  Each comes with whether it is a generator efficiency. *)
let corner_lenses =
  List.filter
    (fun l -> l.Lenses.name <> "external voltage Vdd")
    (Lenses.technology @ Lenses.voltages @ Lenses.logic)
  |> List.map (fun l ->
         (l, String.starts_with ~prefix:"generator " l.Lenses.name))
  |> Array.of_list

(* A draw's configuration: every corner lens in order, each scaled by
   its factor. *)
let perturb cfg factors =
  let acc = ref cfg in
  Array.iteri
    (fun i (lens, efficiency) ->
      (* Efficiencies must stay within (0, 1]. *)
      let f =
        if efficiency then
          Float.min factors.(i) (1.0 /. Float.max 1e-9 (lens.Lenses.get !acc))
        else factors.(i)
      in
      acc := Lenses.scale lens f !acc)
    corner_lenses;
  !acc

let run ?engine ?supervisor ?(samples = 200) ?(spread = 0.10) ?(seed = 1)
    ?pattern cfg =
  let engine =
    match engine with Some e -> e | None -> Engine.serial ()
  in
  let pattern =
    match pattern with
    | Some p -> p
    | None -> Pattern.idd4r cfg.Config.spec
  in
  let rng = { state = Int64.of_int (max 1 seed) } in
  (* Draw every sample's factors first, in the order [perturb] applies
     them (the LCG is sequential state); the configurations are built
     inside the mapped function, on the pool. *)
  let draws =
    List.init samples (fun _ ->
        Array.map
          (fun _ -> 1.0 +. (spread *. ((2.0 *. next_float rng) -. 1.0)))
          corner_lenses)
  in
  let check i =
    if Float.is_finite i then None else Some "non-finite current"
  in
  (* Evaluate the seed configuration, then use its extraction as the
     delta base: a draw perturbs many lenses, but the groups none of
     them reach (and all supply-energy terms when only efficiencies
     moved) still splice from the seed. *)
  ignore (Engine.current engine cfg pattern);
  let base = Engine.extraction engine cfg in
  let outcomes =
    Supervise.map_jobs ?supervisor engine ~check
      (fun factors -> Engine.current ~base engine (perturb cfg factors) pattern)
      draws
  in
  (* Under supervision a failed draw is excluded from the statistics
     and counted; with no supervisor every outcome is Done. *)
  let values =
    List.filter_map
      (function Supervise.Done v -> Some v | _ -> None)
      outcomes
  in
  let n_ok = List.length values in
  if n_ok = 0 then failwith "Corners.run: every sample failed";
  let sorted = List.sort Float.compare values in
  let n = float_of_int n_ok in
  let mean = List.fold_left ( +. ) 0.0 values /. n in
  let var =
    List.fold_left (fun a v -> a +. ((v -. mean) ** 2.0)) 0.0 values /. n
  in
  let nth q =
    List.nth sorted
      (min (n_ok - 1) (int_of_float (q *. float_of_int (n_ok - 1))))
  in
  {
    samples = n_ok;
    failed = samples - n_ok;
    spread;
    mean;
    std = sqrt var;
    min = List.hd sorted;
    max = List.nth sorted (n_ok - 1);
    p05 = nth 0.05;
    p95 = nth 0.95;
  }

let covers d value = value >= d.min && value <= d.max

let pp ppf d =
  Format.fprintf ppf
    "%d samples%s, +-%.0f%% parameter spread: mean %.1f mA, std %.1f, \
     [%.1f .. %.1f] mA (p05 %.1f, p95 %.1f)"
    d.samples
    (if d.failed > 0 then Printf.sprintf " (%d failed)" d.failed else "")
    (d.spread *. 100.0) (d.mean *. 1e3) (d.std *. 1e3)
    (d.min *. 1e3) (d.max *. 1e3) (d.p05 *. 1e3) (d.p95 *. 1e3)
