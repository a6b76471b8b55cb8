(* Exact winning probability of banded randomized symmetric rules.

   Conditioned on the decision vector, a bin-0 input is U[0,t1] with
   probability t1/pi0 and U[t1,t2] with probability q(t2-t1)/pi0; a bin-1
   input is U[t1,t2] with probability (1-q)(t2-t1)/pi1 and U[t2,1] with
   probability (1-t2)/pi1. Expanding the m-fold mixture gives a binomial sum
   whose terms are uniform-sum CDFs at shifted arguments.  Written once
   over a field, with a fixed float operation order (pinned by test_core's
   float-bits suite). *)

type 'a band = { t1 : 'a; t2 : 'a; q : 'a }
type rule = float band

module Make (F : Field.S) = struct
  module U = Uniform_sum.Make (F)

  let validate r =
    if not (F.leq F.zero r.t1 && F.leq r.t1 r.t2 && F.leq r.t2 F.one) then
      invalid_arg "Banded.validate: need 0 <= t1 <= t2 <= 1";
    if not (F.leq F.zero r.q && F.leq r.q F.one) then
      invalid_arg "Banded.validate: need 0 <= q <= 1"

  (* P(sum of [m] iid mixture variables <= t), where the variable is
     U[l1, l1+w1] with probability a and U[l2, l2+w2] with probability 1-a.
     At m = 0 the one term is the empty sum's step at t = 0. *)
  let mixture_sum_cdf ~m ~a ~l1 ~w1 ~l2 ~w2 t =
    let co_a = F.sub F.one a in
    let acc = ref F.zero in
    for j = 0 to m do
      let weight =
        F.mul (F.mul (F.of_bigint (Combinat.binomial m j)) (F.pow a j)) (F.pow co_a (m - j))
      in
      if F.lt F.zero weight then begin
        let widths = Array.init m (fun i -> if i < j then w1 else w2) in
        let shift = F.add (F.mul (F.of_int j) l1) (F.mul (F.of_int (m - j)) l2) in
        acc := F.add !acc (F.mul weight (U.cdf ~widths (F.sub t shift)))
      end
    done;
    !acc

  let winning_probability ~n ~delta r =
    validate r;
    let band = F.sub r.t2 r.t1 in
    let pi0 = F.add r.t1 (F.mul r.q band) in
    let pi1 = F.sub F.one pi0 in
    (* mixture weights inside each bin (guarded against 0/0) *)
    let a0 = if F.lt F.zero pi0 then F.div r.t1 pi0 else F.zero in
    let a1 = if F.lt F.zero pi1 then F.div (F.mul (F.sub F.one r.q) band) pi1 else F.zero in
    let acc = ref F.zero in
    for k = 0 to n do
      let m = n - k in
      let weight =
        F.mul (F.mul (F.of_bigint (Combinat.binomial n k)) (F.pow pi0 m)) (F.pow pi1 k)
      in
      if F.lt F.zero weight then begin
        let f0 = mixture_sum_cdf ~m ~a:a0 ~l1:F.zero ~w1:r.t1 ~l2:r.t1 ~w2:band delta in
        let f1 =
          mixture_sum_cdf ~m:k ~a:a1 ~l1:r.t1 ~w1:band ~l2:r.t2 ~w2:(F.sub F.one r.t2) delta
        in
        acc := F.add !acc (F.mul (F.mul weight f0) f1)
      end
    done;
    !acc
end

include Make (Field.Float)
module Q = Make (Field.Q)

let of_threshold t = { t1 = t; t2 = t; q = 1. }
let fair_coin = { t1 = 0.; t2 = 1.; q = 0.5 }

let prob_bin0 r x = if x <= r.t1 then 1. else if x <= r.t2 then r.q else 0.

let to_rule r = Model.Custom (fun _ x -> prob_bin0 r x)

(* P(q) for a fixed band: expanding pi0^m a0^j (1-a0)^(m-j) cancels the
   conditional normalizers, leaving q^(m-j) (1-q)^l monomials with constant
   (q-free) uniform-sum CDF coefficients. *)
let q_polynomial ~n ~delta ~t1 ~t2 =
  Q.validate { t1; t2; q = Rat.zero };
  let band = Rat.sub t2 t1 in
  let co_t2 = Rat.sub Rat.one t2 in
  (* F0 j r = P(j U[0,t1] + r U[t1,t2] <= delta) *)
  let f0 j r =
    let widths = Array.init (j + r) (fun i -> if i < j then t1 else band) in
    Uniform_sum.Q.cdf ~widths (Rat.sub delta (Rat.mul_int t1 r))
  in
  (* F1 l r = P(l U[t1,t2] + r U[t2,1] <= delta) *)
  let f1 l r =
    let widths = Array.init (l + r) (fun i -> if i < l then band else co_t2) in
    Uniform_sum.Q.cdf ~widths (Rat.sub delta (Rat.add (Rat.mul_int t1 l) (Rat.mul_int t2 r)))
  in
  let q = Poly.x in
  let co_q = Poly.linear Rat.one Rat.minus_one in
  let acc = ref Poly.zero in
  for k = 0 to n do
    let m = n - k in
    let inner0 = ref Poly.zero in
    for j = 0 to m do
      let coeff =
        Rat.mul
          (Rat.of_bigint (Combinat.binomial m j))
          (Rat.mul (Rat.pow t1 j) (Rat.mul (Rat.pow band (m - j)) (f0 j (m - j))))
      in
      if not (Rat.is_zero coeff) then
        inner0 := Poly.add !inner0 (Poly.scale coeff (Poly.pow q (m - j)))
    done;
    let inner1 = ref Poly.zero in
    for l = 0 to k do
      let coeff =
        Rat.mul
          (Rat.of_bigint (Combinat.binomial k l))
          (Rat.mul (Rat.pow band l) (Rat.mul (Rat.pow co_t2 (k - l)) (f1 l (k - l))))
      in
      if not (Rat.is_zero coeff) then
        inner1 := Poly.add !inner1 (Poly.scale coeff (Poly.pow co_q l))
    done;
    acc :=
      Poly.add !acc
        (Poly.scale (Rat.of_bigint (Combinat.binomial n k)) (Poly.mul !inner0 !inner1))
  done;
  !acc

let optimal_q ~n ~delta ~t1 ~t2 =
  let p = q_polynomial ~n ~delta ~t1 ~t2 in
  let deriv = Poly.derivative p in
  let candidates =
    Alg.of_rat Rat.zero :: Alg.of_rat Rat.one
    :: (if Poly.is_zero deriv then [] else Alg.roots_of deriv ~lo:Rat.zero ~hi:Rat.one)
  in
  let value_at a =
    match Alg.to_rat_opt a with
    | Some r -> Poly.eval p r
    | None ->
      let a = Alg.refine a ~eps:Roots.default_eps in
      Poly.eval p (Interval.mid (Alg.enclosure a))
  in
  List.fold_left
    (fun (ba, bv) a ->
      let v = value_at a in
      if Rat.compare v bv > 0 then (a, v) else (ba, bv))
    (Alg.of_rat Rat.zero, Poly.eval p Rat.zero)
    candidates

let restarts = Metrics.counter ~help:"Multistart optimizer restarts" "ddm_opt_restarts_total"

let optimum ~n ~delta () =
  Trace.with_span "banded.optimum" @@ fun () ->
  let clamp01 v = Float.min 1. (Float.max 0. v) in
  let eval p =
    let t1 = clamp01 p.(0) and t2 = clamp01 p.(1) and q = clamp01 p.(2) in
    let r = { t1 = Float.min t1 t2; t2 = Float.max t1 t2; q } in
    winning_probability ~n ~delta r
  in
  let starts =
    [
      [| 0.1; 0.7; 0.75 |]; [| 0.0; 1.0; 0.5 |]; [| 0.6; 0.6; 1.0 |]; [| 0.3; 0.9; 0.5 |];
      [| 0.05; 0.5; 0.9 |]; [| 0.5; 1.0; 0.25 |];
    ]
  in
  let best_x, best_v =
    List.fold_left
      (fun (bx, bv) x0 ->
        Metrics.incr restarts;
        let x, v = Opt.nelder_mead ~f:eval ~x0 ~scale:0.12 ~tol:1e-13 ~max_iter:4000 () in
        if v > bv then (x, v) else (bx, bv))
      ([||], neg_infinity) starts
  in
  let t1 = clamp01 best_x.(0) and t2 = clamp01 best_x.(1) in
  ({ t1 = Float.min t1 t2; t2 = Float.max t1 t2; q = clamp01 best_x.(2) }, best_v)
