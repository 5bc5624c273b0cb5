(* The `vdram advise` driver: static dataflow analysis of the
   elaborated pattern loop.

   Where lint (V08xx) and check (V09xx) judge whether a loop is
   *legal*, advise judges whether it is *wasteful*.  The loop is
   treated cyclically through the shared {!Vdram_sim.Legality} replay
   trace — no simulation run — and four analyses ride on it:

   - per-command slack against the binding timing constraint
     (tRCD/tRAS/tRP/tCCD/tRRD/tFAW), steady-state, first iteration
     dropped as warm-up;
   - steady-state bus and per-bank utilization;
   - row-buffer locality: activates whose row no column command ever
     touches before the closing precharge (V1001);
   - an idle-window inventory: nop runs long enough to spend in CKE
     precharge power-down, per Jagtap et al. (V1003);
   - oversized nop padding beyond every binding window (V1002) and
     the loop's distance from its certified static energy floor
     (V1004), obtained by pricing the idle-stripped ideal schedule
     through the interval evaluator on a point box.

   Every proposed rewrite follows the V09xx verified-fix-it
   discipline, tightened: the rewritten loop must replay legal at the
   authored node *and* across all fourteen roadmap generations, must
   not lose schedulability the original had, and must price strictly
   below the original through {!Vdram_sim.Energy_model} — only then
   is the fix attached. *)

module Parser = Vdram_dsl.Parser
module Elaborate = Vdram_dsl.Elaborate
module Ast = Vdram_dsl.Ast
module Config = Vdram_core.Config
module Spec = Vdram_core.Spec
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model
module Timing = Vdram_sim.Timing
module Legality = Vdram_sim.Legality
module Energy_model = Vdram_sim.Energy_model
module Loop_bound = Vdram_absint.Loop_bound
module Si = Vdram_units.Si
module Span = Vdram_diagnostics.Span
module D = Vdram_diagnostics.Diagnostic
module Fix = Vdram_diagnostics.Fix
module Json = Vdram_json.Json

type slack_entry = {
  slot : int;
  command : Legality.command;
  slack : int;
  binding : Legality.kind;
}

type idle_window = {
  start_slot : int;
  length : int;
  eligible : bool;
  savings : float;
}

type summary = {
  pattern : string;
  cycles : int;
  banks : int;
  schedulable : bool;
  underspaced : int;
  usage : Legality.usage;
  slacks : slack_entry list;
  idle : idle_window list;
  energy : float;
  floor : float;
  ideal_cycles : int;
  waste : float;
}

type t = {
  report : Lint.report;
  summary : summary option;
}

(* ----- loop plumbing ----------------------------------------------- *)

let expand (p : Pattern.t) =
  List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) p.Pattern.slots

let rebuild ~name cmds =
  let rec rle = function
    | [] -> []
    | c :: rest ->
      let rec take n = function
        | c' :: more when c' = c -> take (n + 1) more
        | tail -> (n, tail)
      in
      let n, tail = take 1 rest in
      (c, n) :: rle tail
  in
  Pattern.v ~name (rle cmds)

let kind_label = function
  | Legality.Bank_busy -> "bank state"
  | Legality.Act_to_act -> "tRC"
  | Legality.Act_spacing -> "tRRD"
  | Legality.Four_activate -> "tFAW"
  | Legality.Col_timing -> "tRCD/tCCD"
  | Legality.Pre_timing -> "tRAS/tWR"
  | Legality.Ref_timing -> "tRFC"

(* Largest/smallest n in [lo, hi] satisfying a monotone predicate. *)
let search_max ok lo hi =
  let best = ref None and lo = ref lo and hi = ref hi in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if ok mid then begin
      best := Some mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !best

let search_min ok lo hi =
  let best = ref None and lo = ref lo and hi = ref hi in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if ok mid then begin
      best := Some mid;
      hi := mid - 1
    end
    else lo := mid + 1
  done;
  !best

(* ----- legality predicates ----------------------------------------- *)

let trace_clean timing ~banks q =
  let issues, _ = Legality.replay_trace timing ~banks q in
  List.for_all (fun (i : Legality.issue) -> i.Legality.violations = []) issues

(* Legal at every roadmap generation: the `vdram check` sweep. *)
let sweep_legal (p : Pattern.t) =
  List.for_all
    (fun (r : Check.gen_result) -> r.Check.viols = [])
    (Check.roadmap_results p)

(* The verified-fix-it gate: authored-node legality, schedulability
   preserved when the original had it, whole-roadmap legality, and a
   strictly lower simulated loop energy. *)
let verified ~cfg ~timing ~banks ~schedulable ~energy (q : Pattern.t) =
  fst (Legality.replay_pattern timing ~banks q) = []
  && ((not schedulable) || trace_clean timing ~banks q)
  && sweep_legal q
  && Energy_model.loop_energy cfg q < energy

(* ----- trace queries ----------------------------------------------- *)

(* Steady-state slack per slot: the minimum [at - earliest] over
   iterations past the warm-up, for slots some timing window binds. *)
let slot_slacks issues =
  let best = Hashtbl.create 16 in
  List.iter
    (fun (i : Legality.issue) ->
      if i.Legality.iteration >= 1 then
        match i.Legality.binding with
        | None -> ()
        | Some kind ->
          let slack = i.Legality.at - i.Legality.earliest in
          let better =
            match Hashtbl.find_opt best i.Legality.slot with
            | Some e -> slack < e.slack
            | None -> true
          in
          if better then
            Hashtbl.replace best i.Legality.slot
              { slot = i.Legality.slot; command = i.Legality.command;
                slack; binding = kind })
    issues;
  Hashtbl.fold (fun _ e acc -> e :: acc) best []
  |> List.sort (fun a b -> compare a.slot b.slot)

(* FIFO pairing of successful activates with the precharges that
   close them, each pair carrying whether any column command targeted
   the open row in between.  Coverage counts the column whether or
   not its window was met — a measurement loop clocks it into the
   device either way, so the row is not unused. *)
let act_pre_pairs issues =
  let open_banks = Hashtbl.create 8 in
  let pairs = ref [] in
  List.iter
    (fun (i : Legality.issue) ->
      match i.Legality.command with
      | Legality.Read | Legality.Write ->
        (match Hashtbl.find_opt open_banks i.Legality.bank with
         | Some (_, covered) -> covered := true
         | None -> ())
      | _ when i.Legality.violations <> [] -> ()
      | Legality.Activate ->
        Hashtbl.replace open_banks i.Legality.bank (i, ref false)
      | Legality.Precharge when i.Legality.bank >= 0 ->
        (match Hashtbl.find_opt open_banks i.Legality.bank with
         | Some (act, covered) ->
           Hashtbl.remove open_banks i.Legality.bank;
           pairs := (act, i, !covered) :: !pairs
         | None -> ())
      | _ -> ())
    issues;
  List.rev !pairs

(* Nop runs as (start_slot, length); [cyclic] merges a run that wraps
   from the loop tail into its head (the wrapped run keeps the tail
   start slot). *)
let nop_runs ?(cyclic = false) cmds =
  let n = List.length cmds in
  let arr = Array.of_list cmds in
  let runs = ref [] in
  let i = ref 0 in
  while !i < n do
    if arr.(!i) = Pattern.Nop then begin
      let start = !i in
      while !i < n && arr.(!i) = Pattern.Nop do incr i done;
      runs := (start, !i - start) :: !runs
    end
    else incr i
  done;
  let runs = List.rev !runs in
  if (not cyclic) || runs = [] then runs
  else
    match (runs, List.rev runs) with
    | (0, first_len) :: rest, (last_start, last_len) :: _
      when last_start + last_len = n && last_start <> 0 && first_len <> n ->
      (* tail wraps into head: merge, keep the tail start *)
      List.filteri (fun i _ -> i > 0) rest
      @ [ (last_start, last_len + first_len) ]
    | _ -> runs

(* ----- the idle-stripped ideal schedule ----------------------------- *)

(* ASAP compaction under the shared replay discipline: the loop's
   non-nop commands in order, each issued at the earliest cycle its
   enforced windows allow, then the smallest tail padding that makes
   the loop cyclically legal again.  For measurement-mix loops (ones
   that under-space column/precharge windows on purpose) only the
   activate band is waited on, mirroring what the replay enforces.
   Returns [None] when compaction cannot beat the authored loop — the
   caller falls back to pricing the authored loop itself, which keeps
   the bound sound unconditionally. *)
let ideal_schedule ~timing ~banks ~schedulable (p : Pattern.t) =
  let cmds = List.filter (fun c -> c <> Pattern.Nop) (expand p) in
  let cycles = Pattern.cycles p in
  if cmds = [] || banks < 1 then None
  else begin
    let rank = Legality.create timing ~banks in
    let next_bank = ref 0 in
    let last_bank = ref 0 in
    let open_order = ref [] in
    let limit = (4 * timing.Timing.trc) + timing.Timing.tfaw + 16 in
    let positions = ref [] in
    let t_prev = ref (-1) in
    let failed = ref false in
    let wait_for issue =
      (* earliest t > !t_prev the command is legal at, bounded *)
      let rec go t =
        if t - !t_prev > limit then None
        else if issue t = [] then Some t
        else go (t + 1)
      in
      go (!t_prev + 1)
    in
    List.iter
      (fun cmd ->
        if not !failed then begin
          let placed =
            match cmd with
            | Pattern.Act ->
              let bank = !next_bank in
              next_bank := (bank + 1) mod banks;
              (match
                 wait_for (fun at -> Legality.activate rank ~bank ~at ~row:0)
               with
               | Some t ->
                 last_bank := bank;
                 open_order := !open_order @ [ bank ];
                 Some t
               | None -> None)
            | Pattern.Rd | Pattern.Wr ->
              let write = cmd = Pattern.Wr in
              let bank = !last_bank in
              if schedulable then
                wait_for (fun at -> Legality.column rank ~bank ~at ~write)
              else begin
                let t = !t_prev + 1 in
                ignore (Legality.column rank ~bank ~at:t ~write);
                Some t
              end
            | Pattern.Pre ->
              (match !open_order with
               | [] -> Some (!t_prev + 1)
               | bank :: rest ->
                 if schedulable then (
                   match
                     wait_for (fun at -> Legality.precharge rank ~bank ~at)
                   with
                   | Some t ->
                     open_order := rest;
                     Some t
                   | None -> None)
                 else begin
                   let t = !t_prev + 1 in
                   if Legality.precharge rank ~bank ~at:t = [] then
                     open_order := rest;
                   Some t
                 end)
            | Pattern.Nop -> assert false
          in
          match placed with
          | Some t ->
            positions := (t, cmd) :: !positions;
            t_prev := t
          | None -> failed := true
        end)
      cmds;
    if !failed || !t_prev + 1 > cycles then None
    else begin
      let positions = List.rev !positions in
      let loop_of total =
        let arr = Array.make total Pattern.Nop in
        List.iter (fun (t, c) -> arr.(t) <- c) positions;
        rebuild ~name:(p.Pattern.name ^ "-ideal") (Array.to_list arr)
      in
      let ok total =
        let q = loop_of total in
        fst (Legality.replay_pattern timing ~banks q) = []
        && ((not schedulable) || trace_clean timing ~banks q)
      in
      match search_min ok (!t_prev + 1) cycles with
      | Some total when total < cycles -> Some (loop_of total)
      | _ -> None
    end
  end

(* The certified static floor: the smaller of the interval lower
   endpoints of the ideal schedule and of the authored loop itself —
   the second term makes the bound sound even when compaction finds
   nothing. *)
let static_bound (cfg : Config.t) (p : Pattern.t) =
  let timing = Timing.of_config cfg in
  let banks = cfg.Config.spec.Spec.banks in
  let schedulable = trace_clean timing ~banks p in
  let authored = Loop_bound.lower_bound (Loop_bound.evaluate ~base:cfg p) in
  match ideal_schedule ~timing ~banks ~schedulable p with
  | Some q ->
    Float.min authored (Loop_bound.lower_bound (Loop_bound.evaluate ~base:cfg q))
  | None -> authored

(* ----- fix-it construction ----------------------------------------- *)

(* Token spans are only usable when the statement wrote one bare token
   per loop cycle and every token sits on one source line. *)
let slot_spans (st : Ast.stmt) ~cycles =
  let spans = st.Ast.positional_spans in
  if
    List.length spans = cycles
    && List.for_all (fun (s : Span.t) -> s.Span.line = st.Ast.line) spans
  then Some (Array.of_list spans)
  else None

let token_fix spans slot replacement = Fix.v ~span:spans.(slot) replacement

(* Delete tokens [first, first + count) of the loop, swallowing one
   separating space so the survivors stay single-spaced. *)
let removal_fix spans ~cycles ~first ~count =
  if first + count > cycles then None
  else if first > 0 then
    let prev : Span.t = spans.(first - 1) in
    let last : Span.t = spans.(first + count - 1) in
    Some
      (Fix.v
         ~span:{ prev with Span.col_start = prev.Span.col_end;
                 col_end = last.Span.col_end }
         "")
  else if count < cycles then
    let first_s : Span.t = spans.(0) in
    let next : Span.t = spans.(count) in
    Some
      (Fix.v
         ~span:{ first_s with Span.col_end = next.Span.col_start }
         "")
  else None

(* ----- the V10xx analyses ------------------------------------------ *)

(* V1001: activates whose row no column command touches.  A slot is
   flagged only when every steady-state occurrence is uncovered, and
   the drop-the-pair rewrite survives the verified-fix gate. *)
let redundant_activates ~cfg ~timing ~banks ~schedulable ~energy ~spans
    (p : Pattern.t) issues =
  let pairs = act_pre_pairs issues in
  let by_slots = Hashtbl.create 8 in
  List.iter
    (fun ((act : Legality.issue), (pre : Legality.issue), covered) ->
      if act.Legality.iteration >= 1 then begin
        let key = (act.Legality.slot, pre.Legality.slot) in
        let redundant =
          match Hashtbl.find_opt by_slots key with
          | Some r -> r && not covered
          | None -> not covered
        in
        Hashtbl.replace by_slots key redundant
      end)
    pairs;
  let slots_of = expand p in
  Hashtbl.fold
    (fun (act_slot, pre_slot) redundant acc ->
      if not redundant then acc
      else begin
        let cmds =
          List.mapi
            (fun i c ->
              if i = act_slot || i = pre_slot then Pattern.Nop else c)
            slots_of
        in
        let q = rebuild ~name:p.Pattern.name cmds in
        let fixes =
          match spans with
          | Some spans
            when verified ~cfg ~timing ~banks ~schedulable ~energy q ->
            [ token_fix spans act_slot "nop"; token_fix spans pre_slot "nop" ]
          | _ -> []
        in
        let saved =
          energy -. Energy_model.loop_energy cfg q
        in
        D.warningf ~code:"V1001"
          ?span:(Option.map (fun s -> s.(act_slot)) spans)
          ~notes:
            [ Printf.sprintf
                "the row opened at slot %d is closed by the precharge at \
                 slot %d without a single read or write in between"
                act_slot pre_slot;
              Printf.sprintf
                "dropping the pair saves %s per loop iteration"
                (Si.format_eng ~unit_symbol:"J" saved) ]
          ~help:
            "replace the activate and its precharge with nop; the rewrite \
             was replayed across every roadmap generation and re-priced \
             before being proposed"
          ~fixes
          "activate at slot %d opens a row no column command ever touches"
          act_slot
        :: acc
      end)
    by_slots []
  |> List.sort D.compare_source

(* V1002: nop padding beyond every binding window.  The longest nop
   run is probed: the largest removal that keeps the loop legal at
   the authored node is the finding; the largest removal that also
   clears the roadmap sweep (and prices lower) is the fix. *)
let oversized_padding ~cfg ~timing ~banks ~schedulable ~energy ~spans
    (p : Pattern.t) =
  if Pattern.count p Pattern.Act = 0 then []
  else begin
    let cmds = expand p in
    let cycles = Pattern.cycles p in
    let runs = nop_runs cmds in
    match
      (* the longest run; ties resolved toward the loop tail *)
      List.fold_left
        (fun best (start, len) ->
          match best with
          | Some (_, blen) when blen > len -> best
          | _ -> Some (start, len))
        None runs
    with
    | None -> None
    | Some (start, len) ->
      let arr = Array.of_list cmds in
      let removed r =
        let keep = ref [] in
        Array.iteri
          (fun i c ->
            (* drop the r slots at the end of the run *)
            if not (i >= start + len - r && i < start + len) then
              keep := c :: !keep)
          arr;
        rebuild ~name:p.Pattern.name (List.rev !keep)
      in
      let authored_ok r =
        let q = removed r in
        fst (Legality.replay_pattern timing ~banks q) = []
        && ((not schedulable) || trace_clean timing ~banks q)
      in
      (match search_max authored_ok 1 len with
       | None -> None
       | Some r ->
         let fix_ok r' =
           verified ~cfg ~timing ~banks ~schedulable ~energy (removed r')
         in
         let r' = search_max fix_ok 1 r in
         let fixes =
           match (spans, r') with
           | Some spans, Some r' ->
             Option.to_list
               (removal_fix spans ~cycles ~first:(start + len - r') ~count:r')
           | _ -> []
         in
         let saved r =
           energy -. Energy_model.loop_energy cfg (removed r)
         in
         let notes =
           Printf.sprintf
             "%d of the %d nop cycles at slots %d..%d exceed every binding \
              timing window at the authored node (worth %s per iteration)"
             r len start
             (start + len - 1)
             (Si.format_eng ~unit_symbol:"J" (saved r))
           ::
           (match r' with
            | Some r' when r' < r ->
              [ Printf.sprintf
                  "only %d can go without breaking a slower roadmap \
                   generation; the fix removes exactly those"
                  r' ]
            | None ->
              [ "every padding cycle is needed somewhere on the roadmap \
                 sweep, so no rewrite is proposed" ]
            | Some _ -> [])
         in
         Some
           (D.warningf ~code:"V1002"
              ?span:(Option.map (fun s -> s.(start)) spans)
              ~notes
              ~help:
                "tighten the padding to the binding constraint; the \
                 rewrite was replayed at the authored node and across \
                 every roadmap generation before being proposed"
              ~fixes
              "loop carries %d nop cycle%s more than any timing window \
               needs"
              r
              (if r = 1 then "" else "s")))
  end
  |> Option.to_list

(* V1003: idle windows long enough for precharge power-down.  Entering
   and leaving CKE power-down costs the exit latency tXP, so a window
   is eligible from [tXP + 2] cycles up; the note prices the window at
   the background-minus-power-down delta, per Jagtap et al. *)
let idle_windows ~cfg ~timing ~spans (p : Pattern.t) =
  let txp = timing.Timing.txp in
  let tck = timing.Timing.tck in
  let delta = Model.background_power cfg -. Model.powerdown_power cfg in
  let windows =
    List.map
      (fun (start, len) ->
        let eligible = len >= txp + 2 && delta > 0.0 in
        let savings =
          if eligible then delta *. float_of_int (len - txp) *. tck else 0.0
        in
        { start_slot = start; length = len; eligible; savings })
      (nop_runs ~cyclic:true (expand p))
  in
  let diags =
    List.filter_map
      (fun w ->
        if not w.eligible then None
        else
          Some
            (D.warningf ~code:"V1003"
               ?span:(Option.map (fun s -> s.(w.start_slot)) spans)
               ~notes:
                 [ Printf.sprintf
                     "the window is %d cycles against a power-down exit \
                      latency (tXP) of %d; spending it in precharge \
                      power-down saves about %s per loop iteration"
                     w.length txp
                     (Si.format_eng ~unit_symbol:"J" w.savings) ]
               ~help:
                 "no pattern edit: have the memory controller drop CKE \
                  over this window (power-down entry is policy, not a \
                  loop rewrite)"
               "idle window of %d cycles at slot %d is long enough for \
                precharge power-down"
               w.length w.start_slot))
      windows
  in
  (windows, diags)

(* V1004: distance from the certified floor.  The fix — replacing the
   whole loop with its ideal schedule — is offered only when that
   schedule survives the verified-fix gate. *)
let waste_diagnostic ~cfg ~timing ~banks ~schedulable ~energy
    ~waste_threshold ~spans ~stmt (p : Pattern.t) =
  if Pattern.count p Pattern.Act = 0 || energy <= 0.0 then
    (Loop_bound.lower_bound (Loop_bound.evaluate ~base:cfg p),
     Pattern.cycles p, 0.0, [])
  else begin
    let authored =
      Loop_bound.lower_bound (Loop_bound.evaluate ~base:cfg p)
    in
    let ideal = ideal_schedule ~timing ~banks ~schedulable p in
    let floor, ideal_cycles =
      match ideal with
      | Some q ->
        ( Float.min authored
            (Loop_bound.lower_bound (Loop_bound.evaluate ~base:cfg q)),
          Pattern.cycles q )
      | None -> (authored, Pattern.cycles p)
    in
    let waste = if energy > 0.0 then (energy -. floor) /. energy else 0.0 in
    let diags =
      if schedulable && waste > waste_threshold then begin
        let fixes =
          match (ideal, spans) with
          | Some q, Some spans
            when verified ~cfg ~timing ~banks ~schedulable ~energy q ->
            let cycles = Pattern.cycles p in
            let first : Span.t = spans.(0) in
            let last : Span.t = spans.(cycles - 1) in
            [ Fix.v
                ~span:{ first with Span.col_end = last.Span.col_end }
                (Pattern.to_string q) ]
          | _ -> []
        in
        let span =
          match spans with
          | Some s -> Some s.(0)
          | None ->
            Option.map (fun (st : Ast.stmt) -> st.Ast.keyword_span) stmt
        in
        [ D.warningf ~code:"V1004" ?span
            ~notes:
              [ Printf.sprintf
                  "the loop prices at %s per iteration against a certified \
                   floor of %s (ideal schedule: %d of %d cycles)"
                  (Si.format_eng ~unit_symbol:"J" energy)
                  (Si.format_eng ~unit_symbol:"J" floor)
                  ideal_cycles (Pattern.cycles p);
                "the floor is the interval evaluator's lower endpoint over \
                 the idle-stripped ideal schedule — a sound bound, not an \
                 estimate" ]
            ~help:
              "drop unused activate/precharge pairs (V1001) and tighten \
               padding (V1002), or adopt the proposed ideal schedule"
            ~fixes
            "loop energy is %.0f%% above its certified static floor"
            (waste *. 100.0) ]
      end
      else []
    in
    (floor, ideal_cycles, waste, diags)
  end

(* ----- driver ------------------------------------------------------ *)

let analyze ~waste_threshold ~ast (cfg : Config.t) (p : Pattern.t) =
  let timing = Timing.of_config cfg in
  let banks = cfg.Config.spec.Spec.banks in
  (* A loop illegal in the activate band is the V08xx band's finding;
     advice on top of it would be noise. *)
  if fst (Legality.replay_pattern timing ~banks p) <> [] then
    (Passes.bank_legality ~ast cfg p, None)
  else begin
    let issues, _ = Legality.replay_trace timing ~banks p in
    let schedulable =
      List.for_all (fun (i : Legality.issue) -> i.Legality.violations = []) issues
    in
    let underspaced =
      List.length
        (List.filter
           (fun (i : Legality.issue) -> i.Legality.violations <> [])
           issues)
    in
    let energy = Energy_model.loop_energy cfg p in
    let stmt = Passes.pattern_stmt ast in
    let spans =
      Option.bind stmt (fun st -> slot_spans st ~cycles:(Pattern.cycles p))
    in
    let v1001 =
      redundant_activates ~cfg ~timing ~banks ~schedulable ~energy ~spans p
        issues
    in
    let v1002 =
      if schedulable then
        oversized_padding ~cfg ~timing ~banks ~schedulable ~energy ~spans p
      else []
    in
    let idle, v1003 = idle_windows ~cfg ~timing ~spans p in
    let floor, ideal_cycles, waste, v1004 =
      waste_diagnostic ~cfg ~timing ~banks ~schedulable ~energy
        ~waste_threshold ~spans ~stmt p
    in
    let summary =
      {
        pattern = Pattern.to_string p;
        cycles = Pattern.cycles p;
        banks;
        schedulable;
        underspaced;
        usage = Legality.pattern_usage timing ~banks p;
        slacks = slot_slacks issues;
        idle;
        energy;
        floor;
        ideal_cycles;
        waste;
      }
    in
    (v1001 @ v1002 @ v1003 @ v1004, Some summary)
  end

let run ?(waste_threshold = 0.10) ?file source =
  let base_report diagnostics =
    {
      Lint.file;
      source = Array.of_list (String.split_on_char '\n' source);
      diagnostics = List.stable_sort D.compare_source diagnostics;
    }
  in
  match Parser.parse ?file source with
  | Error e ->
    { report = base_report [ Parser.to_diagnostic e ]; summary = None }
  | Ok ast ->
    let config, elab = Elaborate.elaborate ast in
    let errors = List.filter D.is_error elab in
    (match (config, errors) with
     | None, _ | _, _ :: _ -> { report = base_report errors; summary = None }
     | Some { Elaborate.config = cfg; pattern }, [] ->
       (match pattern with
        | None -> { report = base_report []; summary = None }
        | Some p ->
          let diags, summary = analyze ~waste_threshold ~ast cfg p in
          { report = base_report diags; summary }))

let run_file ?waste_threshold path =
  match In_channel.with_open_text path In_channel.input_all with
  | source -> run ?waste_threshold ~file:path source
  | exception Sys_error msg ->
    {
      report =
        {
          Lint.file = Some path;
          source = [||];
          diagnostics = [ D.errorf ~code:"V0006" "%s" msg ];
        };
      summary = None;
    }

(* ----- rendering ---------------------------------------------------- *)

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>loop `%s` — %d cycles, %d banks%s@," s.pattern
    s.cycles s.banks
    (if s.schedulable then ""
     else
       Printf.sprintf
         " (measurement mix: %d column/precharge windows under-spaced)"
         s.underspaced);
  Format.fprintf ppf
    "utilization: command bus %.0f%%, data bus %.0f%%, banks open %.0f%%@,"
    (100.0 *. s.usage.Legality.command_bus)
    (100.0 *. s.usage.Legality.data_bus)
    (100.0 *. s.usage.Legality.bank_open);
  (match s.slacks with
   | [] -> ()
   | slacks ->
     Format.fprintf ppf "@[<v2>slack (steady state):@,%a@]@,"
       (Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,")
          (fun ppf e ->
            Format.fprintf ppf "slot %2d %-9s %+d against %s" e.slot
              (Legality.command_name e.command)
              e.slack (kind_label e.binding)))
       slacks);
  (match List.filter (fun w -> w.length > 1) s.idle with
   | [] -> ()
   | idle ->
     Format.fprintf ppf "@[<v2>idle windows:@,%a@]@,"
       (Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,")
          (fun ppf w ->
            Format.fprintf ppf "slots %d..%d (%d cycles)%s" w.start_slot
              (w.start_slot + w.length - 1)
              w.length
              (if w.eligible then
                 Printf.sprintf " — power-down eligible, ~%s/iteration"
                   (Si.format_eng ~unit_symbol:"J" w.savings)
               else "")))
       idle);
  Format.fprintf ppf
    "energy: %s per iteration; certified floor %s (ideal schedule %d \
     cycles); waste %.0f%%@]"
    (Si.format_eng ~unit_symbol:"J" s.energy)
    (Si.format_eng ~unit_symbol:"J" s.floor)
    s.ideal_cycles (100.0 *. s.waste)

let summary_json (s : summary) =
  let int n = Json.Num (float n) in
  let fixed x = Json.Lit (Printf.sprintf "%.6f" x) in
  let sci x = Json.Lit (Printf.sprintf "%.6e" x) in
  let slack e =
    Json.Obj
      [ ("slot", int e.slot);
        ("command", Json.Str (Legality.command_name e.command));
        ("slack", int e.slack); ("binding", Json.Str (kind_label e.binding)) ]
  in
  let idle w =
    Json.Obj
      [ ("start", int w.start_slot); ("length", int w.length);
        ("eligible", Json.Bool w.eligible); ("savings_j", sci w.savings) ]
  in
  Json.Obj
    [ ("pattern", Json.Str s.pattern); ("cycles", int s.cycles);
      ("banks", int s.banks); ("schedulable", Json.Bool s.schedulable);
      ("underspaced", int s.underspaced);
      ( "utilization",
        Json.Obj
          [ ("command_bus", fixed s.usage.Legality.command_bus);
            ("data_bus", fixed s.usage.Legality.data_bus);
            ("bank_open", fixed s.usage.Legality.bank_open) ] );
      ("slack", Json.List (List.map slack s.slacks));
      ("idle_windows", Json.List (List.map idle s.idle));
      ("energy_per_iteration_j", sci s.energy);
      ("certified_floor_j", sci s.floor); ("ideal_cycles", int s.ideal_cycles);
      ("waste", fixed s.waste) ]

let to_json t =
  match (Lint.to_json t.report, t.summary) with
  | Json.Obj members, Some s ->
    Json.Obj (members @ [ ("advise", summary_json s) ])
  | json, _ -> json
