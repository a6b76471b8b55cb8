(* Theorem 5.1: exact winning probability of single-threshold algorithms,
   once over a field.  The float operation order is part of the contract
   (test_core's float-bits pins it): (p_b f0) f1, not p_b (f0 f1). *)

let subset_terms =
  Metrics.counter
    ~help:"Decision-vector terms expanded by Theorem 5.1 evaluations (2^n general, n+1 symmetric)"
    "ddm_threshold_subset_terms_total"

module Make (F : Field.S) = struct
  module U = Uniform_sum.Make (F)

  let check_unit what v =
    if not (F.leq F.zero v && F.leq v F.one) then
      invalid_arg ("Threshold: " ^ what ^ " must lie in [0,1]")

  let winning_probability_caps ?(domains = 1) ~delta0 ~delta1 a =
    Array.iter (check_unit "thresholds") a;
    let n = Array.length a in
    Metrics.add subset_terms (1 lsl n);
    (* mask bit i set <=> player i picks bin 1 (x_i > a_i).  [term] is one
       decision vector's contribution. *)
    let term mask =
      let p_b = ref F.one in
      for i = 0 to n - 1 do
        p_b := F.mul !p_b (if mask land (1 lsl i) <> 0 then F.sub F.one a.(i) else a.(i))
      done;
      (* p_b >= 0, so this is p_b = 0 *)
      if F.leq !p_b F.zero then F.zero
      else begin
        let bin0 = ref [] and bin1 = ref [] in
        for i = n - 1 downto 0 do
          if mask land (1 lsl i) <> 0 then bin1 := a.(i) :: !bin1 else bin0 := a.(i) :: !bin0
        done;
        let f0 = U.cdf ~widths:(Array.of_list !bin0) delta0 in
        let f1 = U.cdf_shifted ~lowers:(Array.of_list !bin1) delta1 in
        F.mul (F.mul !p_b f0) f1
      end
    in
    (* 2^n decision vectors sharded by index range; partial sums merge in
       lease order, so the value is worker-count invariant. *)
    Par_fold.fold ~span:"threshold.subset.lease" ~domains ~items:(1 lsl n)
      ~init:(fun () -> F.zero)
      ~step:(fun acc mask -> F.add acc (term mask))
      ~merge:F.add ()

  let winning_probability ?domains ~delta a =
    winning_probability_caps ?domains ~delta0:delta ~delta1:delta a

  (* Symmetric collapse: group decision vectors by the number k of bin-1
     players. P(y has k ones) = C(n,k) β^(n-k) (1-β)^k and the conditional
     laws depend only on counts. *)
  let winning_probability_sym_caps ~n ~delta0 ~delta1 beta =
    check_unit "beta" beta;
    Metrics.add subset_terms (n + 1);
    let co_beta = F.sub F.one beta in
    let acc = ref F.zero in
    for k = 0 to n do
      let m = n - k in
      let weight =
        F.mul (F.mul (F.of_bigint (Combinat.binomial n k)) (F.pow beta m)) (F.pow co_beta k)
      in
      if F.lt F.zero weight then begin
        let f0 = U.cdf_equal ~m ~width:beta delta0 in
        let f1 = U.cdf_equal_shifted ~m:k ~lower:beta delta1 in
        acc := F.add !acc (F.mul (F.mul weight f0) f1)
      end
    done;
    !acc

  let winning_probability_sym ~n ~delta beta =
    winning_probability_sym_caps ~n ~delta0:delta ~delta1:delta beta
end

include Make (Field.Float)
module Q = Make (Field.Q)

let optimum_sym ?(points = 201) ~n ~delta () =
  Opt.grid_then_golden ~f:(fun beta -> winning_probability_sym ~n ~delta beta) ~lo:0. ~hi:1. ~points ()

let optimality_residual_sym ~n ~delta beta =
  let h = 1e-6 in
  let lo = Float.max 0. (beta -. h) and hi = Float.min 1. (beta +. h) in
  (winning_probability_sym ~n ~delta hi -. winning_probability_sym ~n ~delta lo) /. (hi -. lo)

let optimize_vector ~n ~delta () =
  let beta_sym, _ = optimum_sym ~n ~delta () in
  let starts =
    [
      Array.make n beta_sym;
      Array.init n (fun i -> if 2 * i < n then 1. else 0.);
      Array.init n (fun i -> 0.9 -. (0.6 *. float_of_int i /. float_of_int (max 1 (n - 1))));
      Array.init n (fun i -> if i = 0 then 1. else 0.4);
    ]
  in
  let restarts = Metrics.counter ~help:"Multistart optimizer restarts" "ddm_opt_restarts_total" in
  let f a = winning_probability ~delta a in
  Trace.with_span "threshold.optimize_vector" @@ fun () ->
  List.fold_left
    (fun (bx, bv) x0 ->
      Metrics.incr restarts;
      let x, v = Opt.coordinate_ascent ~f ~x0 ~bounds:(Array.make n (0., 1.)) () in
      if v > bv then (x, v) else (bx, bv))
    ([||], neg_infinity) starts
