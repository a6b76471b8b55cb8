(* Sturm-sequence real-root isolation over exact rationals. *)

type enclosure = { lo : Rat.t; hi : Rat.t }

let sturm_chains =
  Metrics.counter ~help:"Sturm chains constructed during root isolation"
    "ddm_roots_sturm_chains_total"

let bisections =
  Metrics.counter ~help:"Interval bisection steps during root isolation and refinement"
    "ddm_roots_bisections_total"

let squarefree p =
  if Poly.degree p <= 0 then p
  else begin
    let g = Poly.gcd p (Poly.derivative p) in
    if Poly.degree g <= 0 then p else fst (Poly.divmod p g)
  end

let sturm_chain p =
  if Poly.is_zero p then []
  else begin
    Metrics.incr sturm_chains;
    let rec go acc p0 p1 =
      if Poly.is_zero p1 then List.rev acc
      else begin
        let r = Poly.neg (snd (Poly.divmod p0 p1)) in
        go (p1 :: acc) p1 r
      end
    in
    go [ p ] p (Poly.derivative p)
  end

(* Sign changes at [v] along a Sturm chain given as {!Poly.sign_at}
   evaluators. *)
let sign_variations signs v =
  let n = Rat.num v and d = Rat.den v in
  let signs = List.filter_map (fun sign -> let s = sign n d in if s = 0 then None else Some s) signs in
  let rec count = function
    | a :: (b :: _ as rest) -> (if a <> b then 1 else 0) + count rest
    | _ -> 0
  in
  count signs

(* Remove rational roots sitting exactly at [v] by dividing out (x - v). *)
let rec strip_root p v =
  if not (Poly.is_zero p) && Rat.is_zero (Poly.eval p v) then
    strip_root (fst (Poly.divmod p (Poly.linear (Rat.neg v) Rat.one))) v
  else p

let count_roots p ~lo ~hi =
  if Rat.compare lo hi > 0 then invalid_arg "Roots.count_roots: empty interval";
  let p = squarefree p in
  if Poly.degree p <= 0 then 0
  else begin
    let at_lo = if Rat.is_zero (Poly.eval p lo) then 1 else 0 in
    let at_hi = if (not (Rat.equal lo hi)) && Rat.is_zero (Poly.eval p hi) then 1 else 0 in
    let p' = strip_root (strip_root p lo) hi in
    if Poly.degree p' <= 0 || Rat.equal lo hi then at_lo + at_hi
    else begin
      let chain = List.map Poly.sign_at (sturm_chain p') in
      at_lo + at_hi + (sign_variations chain lo - sign_variations chain hi)
    end
  end

let rec isolate_squarefree p ~lo ~hi =
  if Poly.degree p <= 0 then []
  else begin
    let exact = ref [] in
    let p = ref p in
    if Rat.is_zero (Poly.eval !p lo) then begin
      exact := { lo; hi = lo } :: !exact;
      p := strip_root !p lo
    end;
    if (not (Rat.equal lo hi)) && Rat.is_zero (Poly.eval !p hi) then begin
      exact := { lo = hi; hi } :: !exact;
      p := strip_root !p hi
    end;
    let p = !p in
    let chain = List.map Poly.sign_at (sturm_chain p) in
    let count a b = sign_variations chain a - sign_variations chain b in
    (* Recursively bisect until each sub-interval holds at most one root.
       Exact rational roots discovered at bisection points are recorded as
       degenerate enclosures. *)
    let rec go a b acc =
      let c = count a b in
      if c = 0 then acc
      else if c = 1 then { lo = a; hi = b } :: acc
      else begin
        Metrics.incr bisections;
        let m = Rat.mid a b in
        if Rat.is_zero (Poly.eval p m) then begin
          let stripped = strip_root p m in
          let chain' = List.map Poly.sign_at (sturm_chain stripped) in
          let count' a b = sign_variations chain' a - sign_variations chain' b in
          let rec go' a b acc =
            let c = count' a b in
            if c = 0 then acc
            else if c = 1 then { lo = a; hi = b } :: acc
            else begin
              let m = Rat.mid a b in
              (* [stripped] has no rational root at any midpoint we will hit
                 with positive probability; if it does, recurse again. *)
              if Rat.is_zero (Poly.eval stripped m) then
                List.rev_append (isolate_squarefree stripped ~lo:a ~hi:b) acc
              else go' m b (go' a m acc)
            end
          in
          { lo = m; hi = m } :: go' m b (go' a m acc)
        end
        else go m b (go a m acc)
      end
    in
    let open_intervals = go lo hi [] in
    List.sort (fun e1 e2 -> Rat.compare e1.lo e2.lo) (!exact @ open_intervals)
  end

let isolate p ~lo ~hi = isolate_squarefree (squarefree p) ~lo ~hi

(* Bisection on the grid lo + k (hi - lo) / 2^s. Over one denominator,
   lo = l/den and hi - lo = w/den, so the level-s interval starting at
   (l 2^s + k w) / (den 2^s) is tracked as that numerator [a] over
   [d = den 2^s], and its midpoint is (2a + w) / 2d. Probes are integer
   sign tests; only the final endpoints are normalised. The widths, probes
   and their order are those of bisecting in Rat, so the enclosure is too. *)
let refine_squarefree p e ~eps =
  if Rat.equal e.lo e.hi then e
  else begin
    let p = strip_root (strip_root p e.lo) e.hi in
    let sign = Poly.sign_at p in
    let ld = Rat.den e.lo and hd = Rat.den e.hi in
    let den = Bigint.mul ld hd and l = Bigint.mul (Rat.num e.lo) hd in
    let w = Bigint.sub (Bigint.mul (Rat.num e.hi) ld) l in
    let s_lo = sign l den in
    (* A single simple root in the open interval implies a sign change.
       The width w/d is below eps = en/ed iff w ed < en d. *)
    let w_ed = Bigint.mul w (Rat.den eps) and en = Rat.num eps in
    let rec go a d =
      if Bigint.compare w_ed (Bigint.mul en d) < 0 then
        { lo = Rat.make a d; hi = Rat.make (Bigint.add a w) d }
      else begin
        Metrics.incr bisections;
        let a2 = Bigint.shift_left a 1 and d2 = Bigint.shift_left d 1 in
        let m = Bigint.add a2 w in
        let s_m = sign m d2 in
        if s_m = 0 then
          let m = Rat.make m d2 in
          { lo = m; hi = m }
        else if s_m = s_lo then go m d2
        else go a2 d2
      end
    in
    go l den
  end

let refine p e ~eps = if Rat.equal e.lo e.hi then e else refine_squarefree (squarefree p) e ~eps

let default_eps = Rat.of_string "1/1000000000000000000000000000000"

let roots_in p ~lo ~hi =
  let p = squarefree p in
  List.map (fun e -> refine_squarefree p e ~eps:default_eps) (isolate_squarefree p ~lo ~hi)

let root_floats p ~lo ~hi =
  List.map (fun e -> Rat.to_float (Rat.mid e.lo e.hi)) (roots_in p ~lo ~hi)
