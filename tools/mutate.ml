(* Mutation fuzzing of the description language.

   Each draw takes one of the given descriptions, sets one number in
   it (a value written after [=]) to one of a fixed set of hostile
   values, keeping its unit, and then, in process, elaborates it,
   renders [vdram power] as the command does and runs [vdram lint].
   Three things must hold on every draw:
   - nothing raises;
   - every V0200, an invariant the description language did not
     report at a key, has a line;
   - [power] succeeds only when every report it printed is finite and
     every supply, rate and efficiency keeps its rule.

   Usage: mutate.exe [--draws N] [--seed S] FILE.dram ...
   Prints one line per violation and a summary; exits 1 on any
   violation.  The draws are a pure function of the seed and the
   files, in the order given. *)

module Elaborate = Vdram_dsl.Elaborate
module Config = Vdram_core.Config
module Spec = Vdram_core.Spec
module Model = Vdram_core.Model
module Domains = Vdram_circuits.Domains
module Lint = Vdram_lint.Lint
module D = Vdram_diagnostics.Diagnostic
module Span = Vdram_diagnostics.Span

let values =
  [| "0"; "-0"; "-1"; "0.5"; "2"; "3"; "7"; "65536"; "1e18"; "1e300";
     "1e-30"; "nan"; "inf" |]

let is_digit c = c >= '0' && c <= '9'

(* Length of the number literal at [i] ([-]digits[.digits][e[-]digits]),
   0 when there is none. *)
let number_at s i =
  let n = String.length s in
  let digits j =
    let k = ref j in
    while !k < n && is_digit s.[!k] do incr k done;
    !k
  in
  let j = if i < n && (s.[i] = '-' || s.[i] = '+') then i + 1 else i in
  let k = digits j in
  let k = if k < n && s.[k] = '.' then digits (k + 1) else k in
  (* No digit at all: a bare sign or dot. *)
  if k = j || (s.[j] = '.' && k = j + 1) then 0
  else
    let k =
      if k + 1 < n && (s.[k] = 'e' || s.[k] = 'E') then
        let e = if s.[k + 1] = '-' || s.[k + 1] = '+' then k + 2 else k + 1 in
        let f = digits e in
        if f > e then f else k
      else k
    in
    k - i

(* Every number written right after an [=]: (offset, length). *)
let numbers s =
  let acc = ref [] in
  String.iteri
    (fun i c ->
      if c = '=' then
        let len = number_at s (i + 1) in
        if len > 0 then acc := (i + 1, len) :: !acc)
    s;
  Array.of_list (List.rev !acc)

let line_of s off =
  let l = ref 1 in
  String.iteri (fun i c -> if i < off && c = '\n' then incr l) s;
  !l

(* The rules [power] must never print past: finite reports, and every
   supply, rate and efficiency within its rule. *)
let broken_rule (cfg : Config.t) =
  let d = cfg.Config.domains and spec = cfg.Config.spec in
  let supplies =
    [ ("vdd", d.Domains.vdd); ("vint", d.Domains.vint);
      ("vbl", d.Domains.vbl); ("vpp", d.Domains.vpp) ]
  and effs =
    [ ("eff_int", d.Domains.eff_int); ("eff_bl", d.Domains.eff_bl);
      ("eff_pp", d.Domains.eff_pp) ]
  and rates =
    [ ("datarate", spec.Spec.datarate);
      ("control clock", spec.Spec.control_clock) ]
  in
  let bad ok = List.find_opt (fun (_, v) -> not (ok v)) in
  match bad Domains.supply_ok supplies with
  | Some (k, v) -> Some (Printf.sprintf "supply %s = %g" k v)
  | None ->
    (match bad Domains.efficiency_ok effs with
     | Some (k, v) -> Some (Printf.sprintf "%s = %g" k v)
     | None ->
       (match bad (fun r -> r > 0.0 && Float.is_finite r) rates with
        | Some (k, v) -> Some (Printf.sprintf "%s = %g" k v)
        | None -> None))

(* [vdram power] in process, as the command runs it: [`Printed] when it
   would print, [`Refused (code, line)] when it would exit 124, [`Bad]
   when it would print past a rule. *)
let power source =
  match Elaborate.load_string source with
  | Error e -> `Refused (e.Vdram_dsl.Parser.code, e.Vdram_dsl.Parser.line)
  | Ok { Elaborate.config; pattern } ->
    (match Vdram_serve.Protocol.resolve_pattern config pattern None with
     | Error _ -> `Refused ("pattern", 1)
     | Ok p ->
       let extraction = lazy (Model.extract config) in
       let eval cfg p =
         Model.pattern_power_staged (Lazy.force extraction) cfg p
       in
       let _, reports = Vdram_serve.Render.power_text ~eval config p in
       (match List.find_map Vdram_engine.Supervise.finite_report reports with
        | Some _ -> `Refused ("non-finite", 1)
        | None ->
          (match broken_rule config with
           | Some why -> `Bad ("power succeeded with " ^ why)
           | None -> `Printed)))

let unspanned (r : Lint.report) =
  List.exists
    (fun (d : D.t) -> d.D.code = "V0200" && d.D.span.Span.line = 0)
    r.Lint.diagnostics

let () =
  let draws = ref 600 and seed = ref 2 and files = ref [] in
  Arg.parse
    [ ("--draws", Arg.Set_int draws, "N number of mutations (default 600)");
      ("--seed", Arg.Set_int seed, "S random seed (default 2)") ]
    (fun f -> files := f :: !files)
    "mutate.exe [--draws N] [--seed S] FILE.dram ...";
  let files =
    Array.of_list
      (List.rev_map
         (fun f ->
           let s = In_channel.with_open_bin f In_channel.input_all in
           (f, s, numbers s))
         !files)
  in
  if Array.length files = 0 then (prerr_endline "mutate: no files"; exit 2);
  let rng = Random.State.make [| !seed |] in
  let violations = ref 0 and printed = ref 0 and refused = ref 0 in
  for draw = 1 to !draws do
    let file, src, nums = files.(Random.State.int rng (Array.length files)) in
    let off, len = nums.(Random.State.int rng (Array.length nums)) in
    let value = values.(Random.State.int rng (Array.length values)) in
    let mutated =
      String.sub src 0 off ^ value
      ^ String.sub src (off + len) (String.length src - off - len)
    in
    let where =
      Printf.sprintf "draw %d: %s line %d: %s -> %s" draw file
        (line_of src off) (String.sub src off len) value
    in
    let violation fmt =
      Printf.ksprintf
        (fun msg ->
          incr violations;
          Printf.printf "%s: %s\n" where msg)
        fmt
    in
    (match power mutated with
     | `Printed -> incr printed
     | `Refused ("V0200", 0) ->
       incr refused;
       violation "power: V0200 without a line"
     | `Refused _ -> incr refused
     | `Bad msg -> violation "%s" msg
     | exception e -> violation "power raised %s" (Printexc.to_string e));
    match Lint.run ~file mutated with
    | r -> if unspanned r then violation "lint: V0200 without a line"
    | exception e -> violation "lint raised %s" (Printexc.to_string e)
  done;
  Printf.printf "%d draws (seed %d): power printed %d, refused %d; %d violation(s)\n"
    !draws !seed !printed !refused !violations;
  if !violations > 0 then exit 1
