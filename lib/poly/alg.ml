(* Real algebraic numbers as (square-free polynomial, isolating interval). *)

type t = { poly : Poly.t; enc : Roots.enclosure }

let of_rat r =
  { poly = Poly.linear (Rat.neg r) Rat.one; enc = { Roots.lo = r; hi = r } }

let of_root p (e : Roots.enclosure) =
  let p = Roots.squarefree p in
  if Roots.count_roots p ~lo:e.Roots.lo ~hi:e.Roots.hi <> 1 then
    invalid_arg "Alg.of_root: interval does not isolate exactly one root";
  (* Normalize exact rational roots to the canonical linear representation. *)
  if Rat.equal e.Roots.lo e.Roots.hi then of_rat e.Roots.lo else { poly = p; enc = e }

let roots_of p ~lo ~hi = List.map (fun e -> of_root p e) (Roots.isolate p ~lo ~hi)
let polynomial t = t.poly
let enclosure t = Interval.make t.enc.Roots.lo t.enc.Roots.hi

let refine t ~eps =
  if Rat.equal t.enc.Roots.lo t.enc.Roots.hi then t
  else { t with enc = Roots.refine_squarefree t.poly t.enc ~eps }

let to_rat_opt t = if Rat.equal t.enc.Roots.lo t.enc.Roots.hi then Some t.enc.Roots.lo else None

let float_eps = Rat.of_string "1/1180591620717411303424" (* 2^-70 *)

let to_float t =
  let t = refine t ~eps:float_eps in
  Rat.to_float (Rat.mid t.enc.Roots.lo t.enc.Roots.hi)

let to_decimal_string ~digits t =
  match to_rat_opt t with
  | Some r -> Rat.to_decimal_string ~digits r
  | None ->
    let scale = Rat.of_bigint (Bigint.pow (Bigint.of_int 10) digits) in
    let floor_scaled v = Rat.floor (Rat.mul v scale) in
    let rec go t fuel =
      let lo = t.enc.Roots.lo and hi = t.enc.Roots.hi in
      if Bigint.equal (floor_scaled lo) (floor_scaled hi) then
        Rat.to_decimal_string ~digits lo
      else if fuel = 0 then
        (* The number straddles a decimal boundary b; it cannot equal b
           (that would make it rational, handled above unless the stored
           polynomial hides a rational root - test it). *)
        let b = Rat.div (Rat.of_bigint (Rat.ceil (Rat.mul lo scale))) scale in
        if Rat.is_zero (Poly.eval t.poly b) then Rat.to_decimal_string ~digits b
        else go (refine t ~eps:(Rat.mul (Rat.sub hi lo) (Rat.of_ints 1 1000000))) 3
      else go (refine t ~eps:(Rat.div_int (Rat.sub hi lo) 16)) (fuel - 1)
    in
    go (refine t ~eps:(Rat.div (Rat.of_ints 1 100000) scale)) 40

let overlap (a : Roots.enclosure) (b : Roots.enclosure) =
  let lo = Rat.max a.Roots.lo b.Roots.lo in
  let hi = Rat.min a.Roots.hi b.Roots.hi in
  if Rat.compare lo hi <= 0 then Some (lo, hi) else None

let equal_exact a b =
  (* a = b iff gcd of their polynomials has a root in the intersection of
     the isolating intervals. *)
  match overlap a.enc b.enc with
  | None -> false
  | Some (lo, hi) ->
    let g = Poly.gcd a.poly b.poly in
    Poly.degree g >= 1 && Roots.count_roots g ~lo ~hi >= 1

let compare a b =
  match (to_rat_opt a, to_rat_opt b) with
  | Some x, Some y -> Rat.compare x y
  | _ ->
    if equal_exact a b then 0
    else begin
      (* Distinct algebraic numbers: refinement must separate them. *)
      let rec go a b =
        match Interval.compare_certain (enclosure a) (enclosure b) with
        | Some c -> c
        | None ->
          let shrink t =
            refine t ~eps:(Rat.div_int (Rat.sub t.enc.Roots.hi t.enc.Roots.lo) 4)
          in
          go (shrink a) (shrink b)
      in
      go a b
    end

let equal a b = compare a b = 0
let sign t = compare t (of_rat Rat.zero)
let eval_poly_interval q t = Interval.eval_poly q (enclosure t)

let tie_width = Rat.of_string "1/1000000000000000000000000000000000000000000000000000000000000"

let compare_poly_values q a b =
  match (to_rat_opt a, to_rat_opt b) with
  | Some x, Some y -> Rat.compare (Poly.eval q x) (Poly.eval q y)
  | _ ->
    let rec go a b =
      match Interval.compare_certain (eval_poly_interval q a) (eval_poly_interval q b) with
      | Some c -> c
      | None ->
        let wa = Rat.sub a.enc.Roots.hi a.enc.Roots.lo in
        let wb = Rat.sub b.enc.Roots.hi b.enc.Roots.lo in
        if Rat.compare wa tie_width < 0 && Rat.compare wb tie_width < 0 then
          (* values indistinguishable at 1e-60: treat as a tie *)
          0
        else begin
          let shrink t =
            refine t ~eps:(Rat.div_int (Rat.sub t.enc.Roots.hi t.enc.Roots.lo) 16)
          in
          go (shrink a) (shrink b)
        end
    in
    go a b

let pp fmt t =
  match to_rat_opt t with
  | Some r -> Rat.pp fmt r
  | None ->
    Format.fprintf fmt "root of %s in [%a, %a]" (Poly.to_string t.poly) Rat.pp t.enc.Roots.lo
      Rat.pp t.enc.Roots.hi
