(* cli_oneshot: cold vdram processes, timed exec -> exit, one client.
   Interactive and CI use: process start, the DSL and the abstract
   interpreter dominate, and the staged engine is never entered
   ([power] calls Model.pattern_power directly), so this is the
   workload every engine change should leave unchanged. *)

open Common
module Json = Vdram_serve.Json
module Render = Vdram_serve.Render
module Model = Vdram_core.Model
module Pattern = Vdram_core.Pattern
module Config = Vdram_core.Config

let commands = [| "power"; "lint"; "check"; "advise"; "simulate" |]

let argv env cmd file =
  match cmd with
  | "check" -> [| env.vdram; "check"; "--certify"; "--samples"; "50"; file |]
  | "simulate" -> [| env.vdram; "simulate"; "--requests"; "2000"; file |]
  | c -> [| env.vdram; c; file |]

(* What `vdram power FILE` must print: the same elaborated description
   rendered in process through Model.pattern_power. *)
let expected_power text =
  match Vdram_dsl.Elaborate.load_string text with
  | Error _ -> None
  | Ok { Vdram_dsl.Elaborate.config; pattern } ->
    let p =
      match pattern with Some p -> p | None -> Pattern.idd7_mixed config.Config.spec
    in
    Some
      (Render.to_string
         (fun ppf () -> Render.power ~eval:Model.pattern_power ppf config p)
         ())

let certified_contained out =
  match Json.parse (String.trim out) with
  | Error _ -> false
  | Ok j ->
    Option.bind (Json.mem "samples" j) (Json.mem "contained") = Some (Json.Bool true)

type run = { cmd : string; file : int; code : int; out : string }

let run (env : env) =
  let devices =
    Gen.devices ~seed:env.seed ~prefix:"cli" (size env ~full:240 ~quick:4)
  in
  let generated =
    List.mapi
      (fun i (d : Gen.device) ->
        let path = Filename.concat env.work (Printf.sprintf "cli_%03d.dram" i) in
        write_file path d.Gen.source;
        (path, d.Gen.source))
      devices
  in
  let shipped =
    Sys.readdir env.examples |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dram")
    |> List.sort compare
    |> List.filteri (fun i _ -> (not env.quick) || i = 0)
    |> List.map (fun f ->
           let path = Filename.concat env.examples f in
           (path, In_channel.with_open_bin path In_channel.input_all))
  in
  let files = Array.of_list (generated @ shipped) in
  let nfiles = Array.length files in
  (* Set-up repetitions, one after every tenth op, so that their median
     sees the same host as the ops do. *)
  let setup = ref [] in
  let setup_rep i =
    if i mod 10 = 0 then begin
      let t0 = Clock.now () in
      let code, out = Proc.run [| env.vdram; "--version" |] in
      let dt = Clock.now () -. t0 in
      if code <> 0 || out = "" then failwith "vdram --version failed";
      setup := dt :: !setup
    end
  in
  let runs = ref [] in
  (* Ops come in fives: the five commands, in order, on one file; the
     files take turns in a seeded order (an exact mix of commands, every
     file equally often). *)
  let order = Array.init nfiles Fun.id in
  Gen.shuffle (Gen.stream env.seed "cli/closed") order;
  let op i =
    let cmd = commands.(i mod Array.length commands) in
    let file = order.(i / Array.length commands mod nfiles) in
    let code, out = Proc.run (argv env cmd (fst files.(file))) in
    runs := { cmd; file; code; out } :: !runs;
    { Harness.items = 1; ok = code = 0 }
  in
  (* Peak memory is read when the phase reaches [min_ops]: the same work
     on every run, however many ops the host fits in the window. *)
  let min_ops = size env ~full:1000 ~quick:10 in
  let peak_mem_mb = ref Float.nan in
  let between i =
    setup_rep i;
    if i + 1 = min_ops then peak_mem_mb := Counters.children_peak_mb ()
  in
  let gc0 = Counters.gc_mark () in
  let closed =
    Harness.closed ~between ~seconds:env.seconds ~min_ops
      ~kind:(fun i -> commands.(i mod Array.length commands))
      op
  in
  let gc = Counters.gc_metrics ~since:gc0 ~items:closed.Harness.items in
  let setup = Array.of_list !setup in
  (* Untimed checks. *)
  let power_memo = Hashtbl.create 64 in
  let check r =
    r.code <> 0
    || (match r.cmd with
        | "power" ->
          let exp =
            match Hashtbl.find_opt power_memo r.file with
            | Some e -> e
            | None ->
              let e = expected_power (snd files.(r.file)) in
              Hashtbl.add power_memo r.file e;
              e
          in
          exp = Some r.out
        | "check" -> certified_contained r.out
        | _ -> r.out <> "")
  in
  let all = List.rev !runs in
  let wrong = List.length (List.filter (fun r -> not (check r)) all) in
  let digest =
    List.filteri (fun i _ -> i < size env ~full:200 ~quick:10) all
    |> List.map (fun r ->
           Printf.sprintf "%s %s %d %s" r.cmd (fst files.(r.file)) r.code
             (Digest.to_hex (Digest.string r.out)))
    |> Harness.digest
  in
  {
    setup;
    closed;
    open_ = None;
    wrong;
    peak_mem_mb = !peak_mem_mb;
    digest;
    counters = gc;
    sample = sample_of ~seed:env.seed ~name:"cli/probe" (size env ~full:3 ~quick:1) devices;
  }
