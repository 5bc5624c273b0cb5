(* Abstract configuration boxes: a nominal configuration plus
   per-lens scale-factor intervals.

   The concretisation of a box is every configuration reachable by
   applying each axis lens with some scale factor drawn from its
   interval, in axis order.  The lens inventory touches pairwise
   disjoint fields, so any scalar the physics reads is moved by at
   most one axis, and its exact range is the hull of the two
   single-axis corner evaluations: for a nominal v > 0 and scale
   s in [lo, hi], fl(v * s) is monotone in s (correctly rounded
   multiplication is monotone), hence always between fl(v * lo) and
   fl(v * hi).  [field] relies on this; a getter moved by several
   axes falls back to corner enumeration with outward widening.

   A read only consults the axes that can move it.  A lens that sets
   a voltage replaces the domains record and leaves the technology
   record and the logic list physically the same, so a getter that
   reads only the technology record returns the base value at that
   axis's corners without being asked.  Each axis is filed, once per
   box, under the sub-records its corners replaced; top-level reads
   still consult every axis. *)

module I = Vdram_units.Interval
module Config = Vdram_core.Config
module Lenses = Vdram_analysis.Lenses

type axis = { lens : Lenses.t; scale : I.t }

(* One axis and the base with only that axis applied at its lower /
   upper scale. *)
type corner = { axis : axis; clo : Config.t; chi : Config.t }

(* The corners a read must consult, by what it reads; each array in
   axis order. *)
type reads = {
  every : corner array;
  tech : corner array;
  domains : corner array;
  logic : corner array;
}

type t = {
  base : Config.t;
  axes : axis list;
  reads : reads Lazy.t;
  mutable moved : bool;  (* some read met an axis that moves it *)
}

let axis lens ~lo ~hi =
  if
    (not (Float.is_finite lo && Float.is_finite hi))
    || lo <= 0.0 || hi < lo
  then
    invalid_arg
      (Printf.sprintf "Abox.axis %S: need finite 0 < lo <= hi"
         lens.Lenses.name);
  { lens; scale = I.v lo hi }

let default_axis lens =
  let lo, hi = lens.Lenses.range in
  axis lens ~lo ~hi

let reads base axes =
  let every =
    Array.of_list
      (List.map
         (fun a ->
           {
             axis = a;
             clo = Lenses.scale a.lens (a.scale : I.t).lo base;
             chi = Lenses.scale a.lens (a.scale : I.t).hi base;
           })
         axes)
  in
  let replacing part =
    let b = part base in
    Array.of_list
      (List.filter
         (fun c -> part c.clo != b || part c.chi != b)
         (Array.to_list every))
  in
  {
    every;
    tech = replacing (fun c -> c.Config.tech);
    domains = replacing (fun c -> c.Config.domains);
    logic = replacing (fun c -> c.Config.logic);
  }

let v ~base axes =
  let names = List.map (fun a -> a.lens.Lenses.name) axes in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Abox.v: duplicate lens axes";
  { base; axes; reads = lazy (reads base axes); moved = false }

let base t = t.base
let axes t = t.axes
let dim t = List.length t.axes

(* All-corner enumeration for a getter several axes move: apply the
   chosen endpoint scale of each affected axis sequentially (the same
   order [instantiate] uses) and hull the results, with one outward
   widening to pay for the composed roundings.  Exact only for
   getters monotone in each scale, which every lens-touched field is;
   the widening keeps the degenerate path from being silently tight. *)
let enumerate_corners t affected get =
  let k = List.length affected in
  if k > 12 then I.top
  else begin
    let acc = ref None in
    for mask = 0 to (1 lsl k) - 1 do
      let cfg =
        List.fold_left
          (fun cfg (j, a) ->
            let s =
              if mask land (1 lsl j) = 0 then (a.scale : I.t).lo
              else (a.scale : I.t).hi
            in
            Lenses.scale a.lens s cfg)
          t.base
          (List.mapi (fun j a -> (j, a)) affected)
      in
      let value = I.point (get cfg) in
      acc :=
        Some
          (match !acc with
           | None -> value
           | Some i -> I.hull i value)
    done;
    match !acc with
    | None -> I.top
    | Some i -> I.v (Float.pred (i : I.t).lo) (Float.succ (i : I.t).hi)
  end

(* The range of [get] over the box, consulting only the corners
   [which] files it under: every other axis leaves what [get] reads
   physically unchanged. *)
let range t which get =
  let base_v = get t.base in
  match t.axes with
  | [] -> I.point base_v
  | _ ->
    let corners = which (Lazy.force t.reads) in
    let affected = ref [] in
    for i = Array.length corners - 1 downto 0 do
      let c = corners.(i) in
      let vlo = get c.clo and vhi = get c.chi in
      if vlo <> base_v || vhi <> base_v then
        affected := (c.axis, vlo, vhi) :: !affected
    done;
    (match !affected with
     | [] -> I.point base_v
     | [ (_, vlo, vhi) ] ->
       t.moved <- true;
       I.v (Float.min vlo vhi) (Float.max vlo vhi)
     | many ->
       t.moved <- true;
       enumerate_corners t (List.map (fun (a, _, _) -> a) many) get)

let field t get = range t (fun r -> r.every) get
let tech t sel = range t (fun r -> r.tech) (fun c -> sel c.Config.tech)

let domains t sel =
  range t (fun r -> r.domains) (fun c -> sel c.Config.domains)

let logic t i sel =
  range t (fun r -> r.logic) (fun c -> sel (List.nth c.Config.logic i))

let moved t = t.moved

let instantiate t scales =
  if List.length scales <> List.length t.axes then
    invalid_arg "Abox.instantiate: one scale per axis required";
  List.fold_left2
    (fun cfg a s ->
      if not (I.contains a.scale s) then
        invalid_arg
          (Printf.sprintf "Abox.instantiate: scale %g outside axis %S" s
             a.lens.Lenses.name);
      Lenses.scale a.lens s cfg)
    t.base t.axes scales

let nominal_scales t =
  List.map
    (fun a ->
      let s = a.scale in
      if I.contains s 1.0 then 1.0 else I.mid s)
    t.axes

(* Split the box across its widest non-degenerate axis; [None] when
   every axis is a point (nothing left to refine). *)
let split t =
  let widest =
    List.fold_left
      (fun acc a ->
        let w = I.width a.scale in
        match acc with
        | Some (_, best) when best >= w -> acc
        | _ -> if w > 0.0 then Some (a.lens.Lenses.name, w) else acc)
      None t.axes
  in
  match widest with
  | None -> None
  | Some (name, _) ->
    let lo_axes, hi_axes =
      List.split
        (List.map
           (fun a ->
             if a.lens.Lenses.name = name then begin
               let l, h = I.split a.scale in
               ( { a with scale = l }, { a with scale = h } )
             end
             else (a, a))
           t.axes)
    in
    Some (v ~base:t.base lo_axes, v ~base:t.base hi_axes)
