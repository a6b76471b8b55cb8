type piece = { lo : Rat.t; hi : Rat.t; poly : Poly.t }
type t = piece list

let make pieces =
  (match pieces with [] -> invalid_arg "Piecewise.make: no pieces" | _ -> ());
  List.iter
    (fun p -> if Rat.compare p.lo p.hi >= 0 then invalid_arg "Piecewise.make: empty piece")
    pieces;
  let rec check = function
    | a :: (b :: _ as rest) ->
      if not (Rat.equal a.hi b.lo) then invalid_arg "Piecewise.make: pieces not contiguous";
      check rest
    | _ -> ()
  in
  check pieces;
  pieces

let pieces t = t

let domain t =
  match (t, List.rev t) with
  | first :: _, last :: _ -> (first.lo, last.hi)
  | _ -> assert false

let find_piece t v =
  let lo, hi = domain t in
  if Rat.compare v lo < 0 || Rat.compare v hi > 0 then
    invalid_arg "Piecewise.eval: outside domain";
  (* Prefer the piece whose half-open interval [lo, hi) contains v; the last
     piece also owns its right endpoint. *)
  let rec go = function
    | [ p ] -> p
    | p :: rest -> if Rat.compare v p.hi < 0 then p else go rest
    | [] -> assert false
  in
  go t

let eval t v = Poly.eval (find_piece t v).poly v

let eval_float t v =
  let lo, hi = domain t in
  let v_clamped = Float.min (Rat.to_float hi) (Float.max (Rat.to_float lo) v) in
  let rec go = function
    | [ p ] -> p
    | p :: rest -> if v_clamped < Rat.to_float p.hi then p else go rest
    | [] -> assert false
  in
  Poly.eval_float (go t).poly v_clamped

let is_continuous t =
  let rec check = function
    | a :: (b :: _ as rest) ->
      Rat.equal (Poly.eval a.poly a.hi) (Poly.eval b.poly b.lo) && check rest
    | _ -> true
  in
  check t

let map_polys f t = List.map (fun p -> { p with poly = f p.poly }) t

type stationary = {
  location : Roots.enclosure;
  piece_poly : Poly.t;
  condition : Poly.t;
  value : Rat.t;
}

type max_result = { argmax : Rat.t; value : Rat.t; stationaries : stationary list }

let maximize t =
  Trace.with_span "piecewise.maximize" @@ fun () ->
  let endpoint_candidates =
    List.concat_map (fun p -> [ (p.lo, Poly.eval p.poly p.lo); (p.hi, Poly.eval p.poly p.hi) ]) t
  in
  let stationaries =
    List.concat_map
      (fun p ->
        let deriv = Poly.derivative p.poly in
        if Poly.is_zero deriv then []
        else begin
          let enclosures = Roots.roots_in deriv ~lo:p.lo ~hi:p.hi in
          List.filter_map
            (fun (e : Roots.enclosure) ->
              (* Keep strictly interior stationary points; endpoints are
                 already candidates. *)
              if Rat.compare e.hi p.lo <= 0 || Rat.compare e.lo p.hi >= 0 then None
              else begin
                let m = Rat.mid e.lo e.hi in
                Some { location = e; piece_poly = p.poly; condition = deriv; value = Poly.eval p.poly m }
              end)
            enclosures
        end)
      t
  in
  let candidates =
    endpoint_candidates
    @ List.map (fun s -> (Rat.mid s.location.Roots.lo s.location.Roots.hi, s.value)) stationaries
  in
  let best =
    List.fold_left
      (fun (ba, bv) (a, v) -> if Rat.compare v bv > 0 then (a, v) else (ba, bv))
      (List.hd candidates) (List.tl candidates)
  in
  { argmax = fst best; value = snd best; stationaries }

type certified_max = { arg : Alg.t; arg_piece : Poly.t; value_enclosure : Interval.t }

(* Two candidates whose enclosures are both narrower than this have values
   treated as tied. *)
let tiny = Rat.of_string "1/1000000000000000000000000000000000000000000000000000000000000"

let maximize_certified t =
  (* Candidates: endpoints as exact rationals, interior stationary points as
     algebraic numbers, each paired with its piece's polynomial. *)
  let endpoint_candidates =
    List.concat_map (fun p -> [ (Alg.of_rat p.lo, p.poly); (Alg.of_rat p.hi, p.poly) ]) t
  in
  let stationary_candidates =
    List.concat_map
      (fun p ->
        let deriv = Poly.derivative p.poly in
        if Poly.is_zero deriv then []
        else
          List.filter_map
            (fun (e : Roots.enclosure) ->
              if Rat.compare e.hi p.lo <= 0 || Rat.compare e.lo p.hi >= 0 then None
              else Some (Alg.of_root deriv e, p.poly))
            (Roots.isolate deriv ~lo:p.lo ~hi:p.hi))
      t
  in
  let candidates = endpoint_candidates @ stationary_candidates in
  let better (a1, q1) (a2, q2) =
    (* certified: is candidate 2's value strictly greater than candidate 1's? *)
    if Poly.equal q1 q2 then Alg.compare_poly_values q1 a1 a2 < 0
    else begin
      (* different pieces: compare value enclosures with refinement *)
      let rec go a1 a2 =
        let v1 = Alg.eval_poly_interval q1 a1 and v2 = Alg.eval_poly_interval q2 a2 in
        match Interval.compare_certain v1 v2 with
        | Some c -> c < 0
        | None ->
          let w1 = Interval.width (Alg.enclosure a1) in
          let w2 = Interval.width (Alg.enclosure a2) in
          if Rat.compare w1 tiny < 0 && Rat.compare w2 tiny < 0 then false
          else
            go
              (Alg.refine a1 ~eps:(Rat.div_int w1 16))
              (Alg.refine a2 ~eps:(Rat.div_int w2 16))
      in
      go a1 a2
    end
  in
  let best =
    List.fold_left
      (fun acc cand -> if better acc cand then cand else acc)
      (List.hd candidates) (List.tl candidates)
  in
  let arg, arg_piece = best in
  (* refine the value enclosure below Roots.default_eps *)
  let rec polish arg =
    let v = Alg.eval_poly_interval arg_piece arg in
    if Rat.compare (Interval.width v) Roots.default_eps < 0 then (arg, v)
    else
      polish (Alg.refine arg ~eps:(Rat.div_int (Interval.width (Alg.enclosure arg)) 16))
  in
  let arg, value_enclosure = polish arg in
  { arg; arg_piece; value_enclosure }
