(* Voltage domains and generator/pump efficiencies: the records and
   constructors, float only.  [Domains] adds the efficiency referral. *)

type domain = Vdd | Vint | Vbl | Vpp

let domain_name = function
  | Vdd -> "Vdd"
  | Vint -> "Vint"
  | Vbl -> "Vbl"
  | Vpp -> "Vpp"

type t = {
  vdd : float;
  vint : float;
  vbl : float;
  vpp : float;
  eff_int : float;
  eff_bl : float;
  eff_pp : float;
  i_constant : float;
}

(* Bit [k] set when the [k]th field differs; a NaN always differs. *)
let changed a b =
  let[@inline] ne k (x : float) y = if x = y then 0 else 1 lsl k in
  ne 0 a.vdd b.vdd lor ne 1 a.vint b.vint lor ne 2 a.vbl b.vbl
  lor ne 3 a.vpp b.vpp lor ne 4 a.eff_int b.eff_int lor ne 5 a.eff_bl b.eff_bl
  lor ne 6 a.eff_pp b.eff_pp lor ne 7 a.i_constant b.i_constant

(* The rules on a description's supplies and efficiencies, kept here
   alone.  The supply ceiling sits well above every DRAM rail and keeps
   every power the model prints finite and readable.  A NaN breaks
   both rules. *)
let max_supply = 10.0
let supply_ok v = v > 0.0 && v <= max_supply
let efficiency_ok e = e > 0.0 && e <= 1.0

let linear_efficiency ~vdd ~vout = Float.min 1.0 (vout /. vdd)

let pump_efficiency ~vdd ~vout =
  let k = Float.max 1.0 (Float.round (Float.ceil (vout /. vdd))) in
  0.85 *. vout /. (k *. vdd)

let v ?eff_int ?eff_bl ?eff_pp ?(i_constant = 5e-3) ~vdd ~vint ~vbl ~vpp () =
  if vdd <= 0.0 || vint <= 0.0 || vbl <= 0.0 || vpp <= 0.0 then
    invalid_arg "Domains.v: voltages must be positive";
  let eff_int =
    match eff_int with
    | Some e -> e
    | None -> linear_efficiency ~vdd ~vout:vint
  and eff_bl =
    match eff_bl with
    | Some e -> e
    | None -> linear_efficiency ~vdd ~vout:vbl
  and eff_pp =
    match eff_pp with
    | Some e -> e
    | None -> pump_efficiency ~vdd ~vout:vpp
  in
  let check name e =
    if not (efficiency_ok e) then
      invalid_arg (Printf.sprintf "Domains.v: %s outside (0, 1]" name)
  in
  check "eff_int" eff_int;
  check "eff_bl" eff_bl;
  check "eff_pp" eff_pp;
  { vdd; vint; vbl; vpp; eff_int; eff_bl; eff_pp; i_constant }

let pp ppf t =
  Format.fprintf ppf
    "Vdd=%.2fV Vint=%.2fV (eff %.2f) Vbl=%.2fV (eff %.2f) Vpp=%.2fV \
     (eff %.2f) Iconst=%.1fmA"
    t.vdd t.vint t.eff_int t.vbl t.eff_bl t.vpp t.eff_pp
    (t.i_constant *. 1e3)
