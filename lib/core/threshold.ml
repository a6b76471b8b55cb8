(* Theorem 5.1: exact winning probability of single-threshold algorithms. *)

let subset_terms =
  Metrics.counter
    ~help:"Decision-vector terms expanded by Theorem 5.1 evaluations (2^n general, n+1 symmetric)"
    "ddm_threshold_subset_terms_total"

let check_thresholds a =
  Array.iter
    (fun v -> if v < 0. || v > 1. then invalid_arg "Threshold: thresholds must lie in [0,1]")
    a

let winning_probability_caps ?(domains = 1) ?leases ~delta0 ~delta1 a =
  check_thresholds a;
  let n = Array.length a in
  Metrics.add subset_terms (1 lsl n);
  (* mask bit i set <=> player i picks bin 1 (x_i > a_i).  [term] is one
     decision vector's contribution. *)
  let term mask =
    let p_b = ref 1. in
    for i = 0 to n - 1 do
      p_b := !p_b *. (if mask land (1 lsl i) <> 0 then 1. -. a.(i) else a.(i))
    done;
    if !p_b = 0. then 0.
    else begin
      let bin0 = ref [] and bin1 = ref [] in
      for i = n - 1 downto 0 do
        if mask land (1 lsl i) <> 0 then bin1 := a.(i) :: !bin1 else bin0 := a.(i) :: !bin0
      done;
      let f0 = Uniform_sum.cdf_float ~widths:(Array.of_list !bin0) delta0 in
      let f1 = Uniform_sum.cdf_shifted_float ~lowers:(Array.of_list !bin1) delta1 in
      !p_b *. f0 *. f1
    end
  in
  (* 2^n decision vectors sharded by index range; partial sums merge in
     lease order, so the value is worker-count invariant. *)
  Par_fold.sum ?leases ~span:"threshold.subset.lease" ~domains ~items:(1 lsl n) term

let winning_probability ?domains ?leases ~delta a =
  winning_probability_caps ?domains ?leases ~delta0:delta ~delta1:delta a

let winning_probability_rat ~delta a =
  let n = Array.length a in
  Array.iter
    (fun v ->
      if Rat.sign v < 0 || Rat.compare v Rat.one > 0 then
        invalid_arg "Threshold.winning_probability_rat: thresholds must lie in [0,1]")
    a;
  Metrics.add subset_terms (1 lsl n);
  Combinat.fold_subsets ~n ~init:Rat.zero ~f:(fun acc mask ->
    let p_b = ref Rat.one in
    for i = 0 to n - 1 do
      let factor = if mask land (1 lsl i) <> 0 then Rat.sub Rat.one a.(i) else a.(i) in
      p_b := Rat.mul !p_b factor
    done;
    if Rat.is_zero !p_b then acc
    else begin
      let bin0 = ref [] and bin1 = ref [] in
      for i = n - 1 downto 0 do
        if mask land (1 lsl i) <> 0 then bin1 := a.(i) :: !bin1 else bin0 := a.(i) :: !bin0
      done;
      let f0 = Uniform_sum.cdf ~widths:(Array.of_list !bin0) delta in
      let f1 = Uniform_sum.cdf_shifted ~lowers:(Array.of_list !bin1) delta in
      Rat.add acc (Rat.mul !p_b (Rat.mul f0 f1))
    end)

(* Symmetric collapse: group decision vectors by the number k of bin-1
   players. P(y has k ones) = C(n,k) β^(n-k) (1-β)^k and the conditional
   laws depend only on counts. *)
let winning_probability_sym_caps ~n ~delta0 ~delta1 beta =
  if beta < 0. || beta > 1. then invalid_arg "Threshold.winning_probability_sym_caps: beta";
  Metrics.add subset_terms (n + 1);
  let acc = ref 0. in
  for k = 0 to n do
    let m = n - k in
    let weight =
      Combinat.binomial_float n k *. Combinat.int_pow beta m *. Combinat.int_pow (1. -. beta) k
    in
    if weight > 0. then begin
      let f0 = Uniform_sum.cdf_equal_float ~m ~width:beta delta0 in
      let f1 = Uniform_sum.cdf_equal_shifted_float ~m:k ~lower:beta delta1 in
      acc := !acc +. (weight *. f0 *. f1)
    end
  done;
  !acc

let winning_probability_sym ~n ~delta beta =
  winning_probability_sym_caps ~n ~delta0:delta ~delta1:delta beta

let winning_probability_sym_rat_caps ~n ~delta0 ~delta1 beta =
  if Rat.sign beta < 0 || Rat.compare beta Rat.one > 0 then
    invalid_arg "Threshold.winning_probability_sym_rat_caps: beta";
  Metrics.add subset_terms (n + 1);
  let co_beta = Rat.sub Rat.one beta in
  let acc = ref Rat.zero in
  for k = 0 to n do
    let m = n - k in
    let weight =
      Rat.mul
        (Rat.of_bigint (Combinat.binomial n k))
        (Rat.mul (Rat.pow beta m) (Rat.pow co_beta k))
    in
    if not (Rat.is_zero weight) then begin
      let f0 = Uniform_sum.cdf_equal ~m ~width:beta delta0 in
      let f1 = Uniform_sum.cdf_equal_shifted ~m:k ~lower:beta delta1 in
      acc := Rat.add !acc (Rat.mul weight (Rat.mul f0 f1))
    end
  done;
  !acc

let winning_probability_sym_rat ~n ~delta beta =
  winning_probability_sym_rat_caps ~n ~delta0:delta ~delta1:delta beta

let optimum_sym ?(points = 201) ~n ~delta () =
  Opt.grid_then_golden ~f:(fun beta -> winning_probability_sym ~n ~delta beta) ~lo:0. ~hi:1. ~points ()

let optimality_residual_sym ~n ~delta beta =
  let h = 1e-6 in
  let lo = Float.max 0. (beta -. h) and hi = Float.min 1. (beta +. h) in
  (winning_probability_sym ~n ~delta hi -. winning_probability_sym ~n ~delta lo) /. (hi -. lo)

let optimize_vector ?starts ~n ~delta () =
  let beta_sym, _ = optimum_sym ~n ~delta () in
  let default_starts =
    [
      Array.make n beta_sym;
      Array.init n (fun i -> if 2 * i < n then 1. else 0.);
      Array.init n (fun i -> 0.9 -. (0.6 *. float_of_int i /. float_of_int (max 1 (n - 1))));
      Array.init n (fun i -> if i = 0 then 1. else 0.4);
    ]
  in
  let starts = match starts with Some s -> s | None -> default_starts in
  let restarts = Metrics.counter ~help:"Multistart optimizer restarts" "ddm_opt_restarts_total" in
  let f a = winning_probability ~delta a in
  Trace.with_span "threshold.optimize_vector" @@ fun () ->
  List.fold_left
    (fun (bx, bv) x0 ->
      Metrics.incr restarts;
      let x, v = Opt.coordinate_ascent ~f ~x0 ~bounds:(Array.make n (0., 1.)) ~sweeps:50 () in
      if v > bv then (x, v) else (bx, bv))
    ([||], neg_infinity) starts
