(* Peripheral logic blocks: gates, densities, toggle rates.  The
   records and constructors, float only; [Logic_block] adds the charge
   formulas. *)

type trigger =
  | Always
  | On_operation of [ `Activate | `Precharge | `Read | `Write ] list

type t = {
  name : string;
  gates : float;
  w_nmos : float;
  w_pmos : float;
  transistors_per_gate : float;
  layout_density : float;
  wiring_density : float;
  trigger : trigger;
  toggle : float;
}

let v ?(w_nmos = 0.5e-6) ?(w_pmos = 0.5e-6) ?(transistors_per_gate = 4.0)
    ?(layout_density = 0.3) ?(wiring_density = 0.5) ?(toggle = 0.15) ~name
    ~gates ~trigger () =
  if gates < 0.0 then invalid_arg "Logic_block.v: negative gate count";
  {
    name;
    gates;
    w_nmos;
    w_pmos;
    transistors_per_gate;
    layout_density;
    wiring_density;
    trigger;
    toggle;
  }

(* Bit [k] set when the [k]th float field differs; a NaN always
   differs. *)
let changed a b =
  let[@inline] ne k (x : float) y = if x = y then 0 else 1 lsl k in
  ne 0 a.gates b.gates lor ne 1 a.w_nmos b.w_nmos lor ne 2 a.w_pmos b.w_pmos
  lor ne 3 a.transistors_per_gate b.transistors_per_gate
  lor ne 4 a.layout_density b.layout_density
  lor ne 5 a.wiring_density b.wiring_density lor ne 6 a.toggle b.toggle

let scale_widths f t = { t with w_nmos = t.w_nmos *. f; w_pmos = t.w_pmos *. f }
