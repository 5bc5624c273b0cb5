(* BENCHMARK.json (metric names, units, bounds) and calibration.json
   (the open-loop rate, the reference's nominal times), read from the
   checkout root. *)

module Json = Vdram_serve.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("ledger: " ^ m); exit 2) fmt

type metric = { name : string; unit_ : string; better : string; bound : float }

type t = {
  workloads : string list;
  run_seconds : float;
  end_to_end : metric list;
  per_layer : metric list;
}

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> die "%s" e
  | s -> ( match Json.parse s with Ok j -> j | Error e -> die "%s: %s" path e)

let member k j = match Json.mem k j with Some v -> v | None -> die "missing %S" k
let str j = Option.value ~default:"" (Json.str j)
let list j = Option.value ~default:[] (Json.list_ j)

let read root =
  let j = read_json (Filename.concat root "BENCHMARK.json") in
  let metrics k =
    List.map
      (fun m ->
        {
          name = str (member "name" m);
          unit_ = str (member "unit" m);
          better = str (member "better" m);
          bound = Option.value ~default:0.0 (Option.bind (Json.mem "bound" m) Json.num);
        })
      (list (member k j))
  in
  {
    workloads = List.map (fun w -> str (member "name" w)) (list (member "workloads" j));
    run_seconds = Option.value ~default:10.0 (Json.num (member "run_seconds" j));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

let calibration root path =
  let c = read_json (Filename.concat root "bench/ledger/calibration.json") in
  match Option.bind (List.fold_left (fun j k -> Option.bind j (Json.mem k)) (Some c) path) Json.num with
  | Some v -> v
  | None -> die "calibration.json has no %s" (String.concat "." path)

(* serve_mixed's open-loop rate R, ops/s. *)
let open_rate root = calibration root [ "open_rate_per_s" ]

(* The host-speed reference's time on the calibration run, s. *)
let reference_nominal root kind = calibration root [ "reference_nominal_s"; kind ]
