(* Theorem 4.1 and its consequences. A decision vector b contributes
   phi_delta(|b|) * P(y = b); the distribution of |b| under independent
   choices is read off the generating polynomial prod_i (alpha_i + (1 -
   alpha_i) z), so the 2^n-term sum collapses to n+1 terms. *)

let phi_evals =
  Metrics.counter ~help:"Theorem 4.1 phi(k) overflow-law evaluations" "ddm_oblivious_phi_evals_total"

module Make (F : Field.S) = struct
  module U = Uniform_sum.Make (F)

  let check_alphas alphas =
    Array.iter
      (fun v ->
        if not (F.leq F.zero v && F.leq v F.one) then
          invalid_arg "Oblivious: probabilities must lie in [0,1]")
      alphas

  let phi_caps ~n ~delta0 ~delta1 k =
    if k < 0 || k > n then invalid_arg "Oblivious.phi: k out of range";
    Metrics.incr phi_evals;
    F.mul (U.irwin_hall_cdf ~m:(n - k) delta0) (U.irwin_hall_cdf ~m:k delta1)

  let phi ~n ~delta k = phi_caps ~n ~delta0:delta ~delta1:delta k

  (* Coefficients of prod_i (alpha_i + (1 - alpha_i) z): index k holds
     P(|b| = k), i.e. the probability that exactly k players pick bin 1. *)
  let ones_distribution alphas =
    let n = Array.length alphas in
    let dist = Array.make (n + 1) F.zero in
    dist.(0) <- F.one;
    Array.iteri
      (fun i alpha ->
        let co_alpha = F.sub F.one alpha in
        for k = i + 1 downto 1 do
          dist.(k) <- F.add (F.mul dist.(k) alpha) (F.mul dist.(k - 1) co_alpha)
        done;
        dist.(0) <- F.mul dist.(0) alpha)
      alphas;
    dist

  let winning_probability_caps ~delta0 ~delta1 alphas =
    check_alphas alphas;
    let n = Array.length alphas in
    let dist = ones_distribution alphas in
    let acc = ref F.zero in
    for k = 0 to n do
      acc := F.add !acc (F.mul dist.(k) (phi_caps ~n ~delta0 ~delta1 k))
    done;
    !acc

  let winning_probability ~delta alphas =
    winning_probability_caps ~delta0:delta ~delta1:delta alphas

  let winning_probability_uniform ~n ~delta =
    let acc = ref F.zero in
    for k = 0 to n do
      acc := F.add !acc (F.mul (F.of_bigint (Combinat.binomial n k)) (phi ~n ~delta k))
    done;
    F.div !acc (F.pow (F.of_int 2) n)

  (* dP/dalpha_k = sum_j P(j others pick bin 1) * (phi(j) - phi(j+1)):
     conditioning on the other players' count, moving player k from bin 1
     to bin 0 trades phi(j+1) for phi(j). *)
  let optimality_residual ~delta alphas k =
    check_alphas alphas;
    let n = Array.length alphas in
    if k < 0 || k >= n then invalid_arg "Oblivious.optimality_residual: index";
    let others = Array.of_list (List.filteri (fun i _ -> i <> k) (Array.to_list alphas)) in
    let dist = ones_distribution others in
    let acc = ref F.zero in
    for j = 0 to n - 1 do
      acc := F.add !acc (F.mul dist.(j) (F.sub (phi ~n ~delta j) (phi ~n ~delta (j + 1))))
    done;
    !acc

  (* The winning probability is multilinear in alpha, so its maximum over
     the cube [0,1]^n is attained at a vertex; vertices with the same
     number of ones are equivalent, so the global (non-anonymous)
     oblivious optimum is the best deterministic partition max_k phi(k). *)
  let optimal_partition ~n ~delta =
    let best = ref (0, phi ~n ~delta 0) in
    for k = 1 to n do
      let p = phi ~n ~delta k in
      if F.lt (snd !best) p then best := (k, p)
    done;
    !best
end

include Make (Field.Float)
module Q = Make (Field.Q)

let symmetric_poly ~n ~delta =
  (* P(alpha) = sum_k C(n,k) phi(k) alpha^(n-k) (1-alpha)^k *)
  let alpha = Poly.x in
  let co_alpha = Poly.linear Rat.one Rat.minus_one in
  let acc = ref Poly.zero in
  for k = 0 to n do
    let coeff = Rat.mul (Rat.of_bigint (Combinat.binomial n k)) (Q.phi ~n ~delta k) in
    let term = Poly.mul (Poly.pow alpha (n - k)) (Poly.pow co_alpha k) in
    acc := Poly.add !acc (Poly.scale coeff term)
  done;
  !acc

let rho_condition_poly ~n ~delta =
  Poly.of_list
    (List.init n (fun r ->
       Rat.mul
         (Rat.of_bigint (Combinat.binomial (n - 1) r))
         (Rat.sub (Q.phi ~n ~delta (r + 1)) (Q.phi ~n ~delta r))))
