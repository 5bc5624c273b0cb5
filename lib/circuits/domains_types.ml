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
    if e <= 0.0 || e > 1.0 then
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
