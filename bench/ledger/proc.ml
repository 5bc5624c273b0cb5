(* Child processes: one-shot vdram commands with captured stdout, and the
   serve daemon's lifecycle.  Every child started here is waited for. *)

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

(* Run [argv] to completion; stdout is captured, stderr discarded unless
   [stderr] is given.  Returns the exit code (128+n when killed by signal
   n) and stdout. *)
let run ?stderr argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = devnull () in
  let pid =
    Unix.create_process argv.(0) argv null wr (Option.value stderr ~default:null)
  in
  Unix.close wr;
  Unix.close null;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read rd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close rd;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> 128 + abs s
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let code = wait () in
  (code, Buffer.contents buf)

external children_maxrss_kb : unit -> int = "ledger_children_maxrss_kb"

(* Peak resident set of a live process, from /proc (Linux). *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | s ->
    String.split_on_char '\n' s
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.0)
           | _ -> None)
    |> Option.value ~default:Float.nan

(* ----- the serve daemon ---------------------------------------------- *)

type daemon = { pid : int; socket : string }

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Block for the reply line of the one request outstanding on [fd]. *)
let read_line ?(timeout = 10.0) fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let deadline = Clock.now () +. timeout in
  let rec go () =
    if Clock.now () > deadline then None
    else
      match Unix.select [ fd ] [] [] 0.5 with
      | [], _, _ -> go ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n -> (
          Buffer.add_subbytes buf chunk 0 n;
          let s = Buffer.contents buf in
          match String.index_opt s '\n' with
          | Some i -> Some (String.sub s 0 i)
          | None -> go ()))
  in
  go ()

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Clock.now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Clock.now () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* Exec the daemon and poll until a ping is answered; returns it with
   the exec -> first-ping-ok time in seconds. *)
let boot ~vdram ~socket =
  let null = devnull () in
  let t0 = Clock.now () in
  let pid =
    Unix.create_process vdram
      [| vdram; "serve"; "--socket"; socket; "--jobs"; "2" |]
      null null null
  in
  Unix.close null;
  let d = { pid; socket } in
  let deadline = t0 +. 30.0 in
  let rec ping () =
    if Clock.now () > deadline then begin
      stop d;
      failwith "vdram serve did not answer a ping within 30 s"
    end;
    match connect socket with
    | None ->
      Unix.sleepf 0.0002;
      ping ()
    | Some fd ->
      write_all fd "{\"id\":0,\"op\":\"ping\"}\n";
      let reply = read_line fd in
      Unix.close fd;
      (match reply with
       | Some l when Vdram_serve.Json.(
             match parse l with
             | Ok j -> Option.bind (mem "status" j) str = Some "ok"
             | Error _ -> false) ->
         ()
       | _ ->
         Unix.sleepf 0.0002;
         ping ())
  in
  ping ();
  (d, Clock.now () -. t0)
