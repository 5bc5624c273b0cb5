(* Signaling buses: wire segments with optional buffers.  The records
   and constructors, float only; [Bus] adds the charge formulas. *)

type segment = {
  name : string;
  length : float;
  buffer : (float * float) option;
  mux : int option;
  toggle : float;
}

let segment ?buffer ?mux ?(toggle = 1.0) ~name ~length () =
  if length < 0.0 then invalid_arg "Bus.segment: negative length";
  { name; length; buffer; mux; toggle }

type role =
  | Write_data
  | Read_data
  | Row_address
  | Column_address
  | Bank_address
  | Command
  | Clock

let role_name = function
  | Write_data -> "write data"
  | Read_data -> "read data"
  | Row_address -> "row address"
  | Column_address -> "column address"
  | Bank_address -> "bank address"
  | Command -> "command"
  | Clock -> "clock"

type t = {
  name : string;
  role : role;
  wires : int;
  segments : segment list;
}

let v ~name ~role ~wires segments =
  if wires <= 0 then invalid_arg "Bus.v: wires must be positive";
  { name; role; wires; segments }

let total_length t =
  List.fold_left (fun acc s -> acc +. s.length) 0.0 t.segments
