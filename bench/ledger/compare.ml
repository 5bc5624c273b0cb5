(* ledger.exe compare PARENT.jsonl CHANGE.jsonl [--root DIR]

   Reads the untraced records of two sets of runs (made with the same
   benchmark code, settings and seed, alternating parent and change) and
   reports, per workload and end-to-end metric:
   - the no-regression rule: the change's median may be worse than the
     parent's by at most the metric's BENCHMARK.json bound; where the
     parent's run-to-run spread (IQR / median) exceeds the bound the row
     is "unresolved" unless every change run beats every parent run;
   - the pair rule for a claimed gain: at least ten pairs, the change
     wins at least nine tenths of them (ties count for neither), and the
     medians differ by more than the parent's IQR.
   A result digest that differs between any two runs of a workload is a
   failure, and failed_frac is reported with its counts.  Exits 1 on a
   regression or a digest mismatch. *)

module Json = Vdram_serve.Json
module B = Bench_json

type record = { workload : string; digest : string; attempted : int; failed : int; metrics : Json.t }

let load path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match Json.parse l with
         | Error _ -> None
         | Ok j when Json.mem "trace" j = Some (Json.Bool false) ->
           let s k = Option.value ~default:"" (Option.bind (Json.mem k j) Json.str) in
           let i k = Option.value ~default:0 (Option.bind (Json.mem k j) Json.int_) in
           Some
             {
               workload = s "workload";
               digest = s "digest";
               attempted = i "attempted";
               failed = i "failed";
               metrics = Option.value ~default:Json.Null (Json.mem "metrics" j);
             }
         | Ok _ -> None)

let value name r =
  Option.bind (Json.mem name r.metrics) (fun m -> Option.bind (Json.mem "value" m) Json.num)

let main args =
  let root = ref "." in
  let files = ref [] in
  let rec parse = function
    | "--root" :: d :: rest ->
      root := d;
      parse rest
    | f :: rest ->
      files := !files @ [ f ];
      parse rest
    | [] -> ()
  in
  parse args;
  let parent, change =
    match !files with
    | [ p; c ] -> (load p, load c)
    | _ -> B.die "usage: ledger.exe compare PARENT.jsonl CHANGE.jsonl [--root DIR]"
  in
  let bench = B.read !root in
  let bad = ref false in
  List.iter
    (fun w ->
      let mine l = List.filter (fun r -> r.workload = w) l in
      let p = mine parent and c = mine change in
      Printf.printf "%s: %d parent runs, %d change runs\n" w (List.length p) (List.length c);
      let digests = List.sort_uniq compare (List.map (fun r -> r.digest) (p @ c)) in
      if List.length digests > 1 then begin
        bad := true;
        Printf.printf "  FAIL result digest differs between runs: %s\n" (String.concat " " digests)
      end;
      let frac l =
        let f = List.fold_left (fun a r -> a + r.failed) 0 l
        and a = List.fold_left (fun a r -> a + r.attempted) 0 l in
        Printf.sprintf "%d/%d = %.3g" f a (if a = 0 then 0.0 else float_of_int f /. float_of_int a)
      in
      Printf.printf "  failed_frac parent %s, change %s\n" (frac p) (frac c);
      if List.length p >= 2 && List.length c >= 2 then
        List.iter
          (fun (m : B.metric) ->
            let vals l = Array.of_list (List.filter_map (value m.B.name) l) in
            let pv = vals p and cv = vals c in
            if Array.length pv >= 2 && Array.length cv >= 2 then begin
              let lower = m.B.better = "lower" in
              let better a b = if lower then a < b else a > b in
              let pm = Stats.median pv and cm = Stats.median cv in
              let q = Stats.quartiles pv in
              let iqr = List.nth q 2 -. List.nth q 0 in
              let spread = Stats.spread pv in
              let worse = (if lower then cm -. pm else pm -. cm) /. Float.abs pm in
              let all_better =
                Array.for_all (fun x -> Array.for_all (fun y -> better x y) pv) cv
              in
              let pairs = min (Array.length pv) (Array.length cv) in
              let wins = ref 0 in
              for i = 0 to pairs - 1 do
                if better cv.(i) pv.(i) then incr wins
              done;
              let gain =
                pairs >= 10
                && float_of_int !wins >= 0.9 *. float_of_int pairs
                && better cm pm
                && Float.abs (cm -. pm) > iqr
              in
              let verdict =
                if gain then "GAIN"
                else if spread > m.B.bound && not all_better then "unresolved (spread > bound)"
                else if worse > m.B.bound then begin
                  bad := true;
                  "REGRESSION"
                end
                else "ok"
              in
              Printf.printf
                "  %-14s parent %.6g [q1 %.6g q3 %.6g]  change %.6g  %+.1f%% worse-by (bound %.0f%%)  spread %.1f%%  wins %d/%d  %s\n"
                m.B.name pm (List.nth q 0) (List.nth q 2) cm (worse *. 100.0) (m.B.bound *. 100.0)
                (spread *. 100.0) !wins pairs verdict
            end)
          bench.B.end_to_end)
    bench.B.workloads;
  if !bad then exit 1
