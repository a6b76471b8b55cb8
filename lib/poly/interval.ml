type t = { lo : Rat.t; hi : Rat.t }

let make lo hi =
  if Rat.compare lo hi > 0 then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let point v = { lo = v; hi = v }
let width i = Rat.sub i.hi i.lo
let mid i = Rat.mid i.lo i.hi
let mem v i = Rat.compare i.lo v <= 0 && Rat.compare v i.hi <= 0
let neg i = { lo = Rat.neg i.hi; hi = Rat.neg i.lo }
let add a b = { lo = Rat.add a.lo b.lo; hi = Rat.add a.hi b.hi }
let sub a b = add a (neg b)

let mul a b =
  let p1 = Rat.mul a.lo b.lo in
  let p2 = Rat.mul a.lo b.hi in
  let p3 = Rat.mul a.hi b.lo in
  let p4 = Rat.mul a.hi b.hi in
  { lo = Rat.min (Rat.min p1 p2) (Rat.min p3 p4); hi = Rat.max (Rat.max p1 p2) (Rat.max p3 p4) }

let scale c i =
  if Rat.sign c >= 0 then { lo = Rat.mul c i.lo; hi = Rat.mul c i.hi }
  else { lo = Rat.mul c i.hi; hi = Rat.mul c i.lo }

let eval_poly p i =
  let acc = ref (point Rat.zero) in
  let coeffs = Poly.coeffs p in
  for k = Array.length coeffs - 1 downto 0 do
    acc := add (mul !acc i) (point coeffs.(k))
  done;
  !acc

let disjoint_lt a b = Rat.compare a.hi b.lo < 0

let compare_certain a b =
  if disjoint_lt a b then Some (-1)
  else if disjoint_lt b a then Some 1
  else if Rat.equal a.lo a.hi && Rat.equal b.lo b.hi && Rat.equal a.lo b.lo then Some 0
  else None

let pp fmt i = Format.fprintf fmt "[%a, %a]" Rat.pp i.lo Rat.pp i.hi
