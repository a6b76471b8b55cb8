(* Exact piecewise-polynomial construction of beta |-> P_n(beta). *)

let rat_of_bigint = Rat.of_bigint

(* beta^m * F0(m, beta, delta) as a polynomial in beta, over the active
   indices j = 0..top:
   (1/m!) sum_{j <= top} (-1)^j C(m,j) (delta - j beta)^m. *)
let g0_poly ~m ~delta ~top =
  let acc = ref Poly.zero in
  for j = 0 to top do
    let base = Poly.linear delta (Rat.of_int (-j)) in
    let term = Poly.scale (rat_of_bigint (Combinat.binomial m j)) (Poly.pow base m) in
    acc := if j land 1 = 0 then Poly.add !acc term else Poly.sub !acc term
  done;
  Poly.scale (Rat.inv (rat_of_bigint (Combinat.factorial m))) !acc

(* (1-beta)^k * F1(k, beta, delta) as a polynomial in beta, over the active
   indices j = 0..top:
   (1-beta)^k - (1/k!) sum_{j <= top} (-1)^j C(k,j) (k - delta - j + j beta)^k. *)
let g1_poly ~k ~delta ~top =
  let co_beta = Poly.linear Rat.one Rat.minus_one in
  let head = Poly.pow co_beta k in
  let acc = ref Poly.zero in
  for j = 0 to top do
    let base = Poly.linear (Rat.sub (Rat.of_int (k - j)) delta) (Rat.of_int j) in
    let term = Poly.scale (rat_of_bigint (Combinat.binomial k j)) (Poly.pow base k) in
    acc := if j land 1 = 0 then Poly.add !acc term else Poly.sub !acc term
  done;
  Poly.sub head (Poly.scale (Rat.inv (rat_of_bigint (Combinat.factorial k))) !acc)

(* The last index j <= bound for which [active j] holds, or -1. The
   indicator tests below are monotone in j, so the active indices are the
   prefix 0..top. *)
let active_prefix ~bound active =
  let rec go j = if j <= bound && active j then go (j + 1) else j - 1 in
  go 0

(* Bin 0's indicator at [probe]: j probe < delta. *)
let g0_top ~m ~delta ~probe = active_prefix ~bound:m (fun j -> Rat.compare (Rat.mul_int probe j) delta < 0)

(* Bin 1's indicator at [probe]: k - delta - j (1 - probe) > 0. *)
let g1_top ~k ~delta ~probe =
  let slack = Rat.sub (Rat.of_int k) delta and co_probe = Rat.sub Rat.one probe in
  active_prefix ~bound:k (fun j -> Rat.sign (Rat.sub slack (Rat.mul_int co_probe j)) > 0)

let memoize f =
  let tbl = Hashtbl.create 16 in
  fun key ->
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = f key in
      Hashtbl.add tbl key v;
      v

let breakpoints_caps ~n ~delta0 ~delta1 =
  if n < 1 then invalid_arg "Symbolic.breakpoints: n";
  if Rat.sign delta0 <= 0 || Rat.sign delta1 <= 0 then
    invalid_arg "Symbolic.breakpoints: delta";
  let interior = ref [] in
  let add r = if Rat.sign r > 0 && Rat.compare r Rat.one < 0 then interior := r :: !interior in
  (* bin-0 switches: beta = delta0 / j *)
  for j = 1 to n do
    add (Rat.div_int delta0 j)
  done;
  (* bin-1 switches: beta = 1 - (k - delta1)/j, for k > delta1 *)
  for k = 1 to n do
    let excess = Rat.sub (Rat.of_int k) delta1 in
    if Rat.sign excess > 0 then
      for j = 1 to k do
        add (Rat.sub Rat.one (Rat.div_int excess j))
      done
  done;
  let sorted = List.sort_uniq Rat.compare !interior in
  (Rat.zero :: sorted) @ [ Rat.one ]

let breakpoints ~n ~delta = breakpoints_caps ~n ~delta0:delta ~delta1:delta

let sym_threshold_curve_caps ~n ~delta0 ~delta1 =
  Trace.with_span "symbolic.curve" @@ fun () ->
  let bps = breakpoints_caps ~n ~delta0 ~delta1 in
  (* A piece enters each sum only through its active prefix, so the pieces
     of one curve share the sums. *)
  let g0 = memoize (fun (m, top) -> g0_poly ~m ~delta:delta0 ~top) in
  let g1 = memoize (fun (k, top) -> g1_poly ~k ~delta:delta1 ~top) in
  let piece_poly probe =
    let acc = ref Poly.zero in
    for k = 0 to n do
      let m = n - k in
      let term =
        Poly.mul
          (g0 (m, g0_top ~m ~delta:delta0 ~probe))
          (g1 (k, g1_top ~k ~delta:delta1 ~probe))
      in
      acc := Poly.add !acc (Poly.scale (rat_of_bigint (Combinat.binomial n k)) term)
    done;
    !acc
  in
  let rec pieces = function
    | lo :: (hi :: _ as rest) ->
      { Piecewise.lo; hi; poly = piece_poly (Rat.mid lo hi) } :: pieces rest
    | _ -> []
  in
  let curve = Piecewise.make (pieces bps) in
  (* The construction must produce a continuous function: every switching
     term vanishes at its breakpoint. This assertion guards the indicator
     bookkeeping. *)
  if not (Piecewise.is_continuous curve) then
    failwith "Symbolic.sym_threshold_curve: internal error (discontinuous construction)";
  curve

let sym_threshold_curve ~n ~delta = sym_threshold_curve_caps ~n ~delta0:delta ~delta1:delta

let optimality_conditions ~n ~delta =
  List.map
    (fun (p : Piecewise.piece) -> (p.Piecewise.lo, p.Piecewise.hi, Poly.derivative p.Piecewise.poly))
    (Piecewise.pieces (sym_threshold_curve ~n ~delta))

let optimal_sym_threshold ~n ~delta () = Piecewise.maximize (sym_threshold_curve ~n ~delta)

let optimal_sym_threshold_certified ~n ~delta () =
  Piecewise.maximize_certified (sym_threshold_curve ~n ~delta)

let monic_condition p =
  if Poly.is_zero p then p else Poly.scale (Rat.inv (Poly.leading p)) p
