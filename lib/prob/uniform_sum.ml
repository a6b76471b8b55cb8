(* Inclusion-exclusion laws for sums of independent uniforms
   (paper Lemmas 2.4, 2.5, 2.7 and Corollary 2.6), once over a field.
   Each body fixes its float operation order: test_core's float-bits
   suite pins the float instance's answers to the bit. *)

let ie_terms =
  Metrics.counter
    ~help:"Inclusion-exclusion terms expanded by the uniform-sum laws (Lemmas 2.4-2.7)"
    "ddm_ie_terms_total"

module Make (F : Field.S) = struct
  let clamp01 v = if F.lt v F.zero then F.zero else if F.lt F.one v then F.one else v

  (* [Float.max 0.] to the bit: [-0.] maps to [0.], [nan] stays [nan]. *)
  let floor0 v = if F.leq v F.zero then F.zero else v

  let check_width name w =
    if not (F.leq F.zero w) then invalid_arg ("Uniform_sum." ^ name ^ ": negative width")

  let check_lower name l =
    if not (F.leq F.zero l && F.leq l F.one) then
      invalid_arg ("Uniform_sum." ^ name ^ ": lower bound outside [0,1]")

  (* The positive widths; zero widths are point masses at 0. *)
  let positive name widths =
    Array.iter (check_width name) widths;
    if Array.for_all (F.lt F.zero) widths then widths
    else Array.of_list (List.filter (F.lt F.zero) (Array.to_list widths))

  (* Lemma 2.4's inclusion-exclusion over positive widths,
     Σ_I (-1)^|I| (t - Σ_I w)₊^k / (k! Π w): the CDF at k = m, its
     density (Lemma 2.5) at k = m - 1. *)
  let ie_general widths t k =
    Metrics.add ie_terms (1 lsl Array.length widths);
    F.div (F.subset_power_sum widths t k)
      (F.mul (F.of_bigint (Combinat.factorial k)) (Array.fold_left F.mul F.one widths))

  (* The same sum for m equal widths, grouped by |I| = j: O(m) terms. *)
  let ie_equal ~m ~width t k =
    Metrics.add ie_terms (m + 1);
    let acc = ref F.zero in
    for j = 0 to m do
      let shift = F.mul width (F.of_int j) in
      if F.lt shift t then begin
        let term = F.mul (F.of_bigint (Combinat.binomial m j)) (F.pow (F.sub t shift) k) in
        acc := if j land 1 = 0 then F.add !acc term else F.sub !acc term
      end
    done;
    F.div !acc (F.mul (F.of_bigint (Combinat.factorial k)) (F.pow width m))

  let cdf ~widths t =
    let widths = positive "cdf" widths in
    let m = Array.length widths in
    if m = 0 then if F.leq F.zero t then F.one else F.zero
    else if F.leq t F.zero then F.zero
    else clamp01 (ie_general widths t m)

  let pdf ~widths t =
    let widths = positive "pdf" widths in
    let m = Array.length widths in
    if m = 0 then invalid_arg "Uniform_sum.pdf: degenerate distribution";
    if F.leq t F.zero then F.zero else floor0 (ie_general widths t (m - 1))

  (* P(Σ U[l_i, 1] <= t) = 1 - P(Σ U[0, 1 - l_i] < m - t). *)
  let cdf_shifted ~lowers t =
    Array.iter (check_lower "cdf_shifted") lowers;
    let m = F.of_int (Array.length lowers) in
    let widths = Array.map (F.sub F.one) lowers in
    if Array.for_all (fun w -> F.leq w F.zero) widths then
      (* Fully degenerate: the sum is the constant m. *)
      if F.leq m t then F.one else F.zero
    else clamp01 (F.sub F.one (cdf ~widths (F.sub m t)))

  let cdf_equal ~m ~width t =
    if m < 0 then invalid_arg "Uniform_sum.cdf_equal: negative m";
    check_width "cdf_equal" width;
    if m = 0 || F.leq width F.zero then if F.leq F.zero t then F.one else F.zero
    else if F.leq t F.zero then F.zero
    else clamp01 (ie_equal ~m ~width t m)

  let cdf_equal_shifted ~m ~lower t =
    check_lower "cdf_equal_shifted" lower;
    let width = F.sub F.one lower in
    if F.leq width F.zero then if F.leq (F.of_int m) t then F.one else F.zero
    else clamp01 (F.sub F.one (cdf_equal ~m ~width (F.sub (F.of_int m) t)))

  let irwin_hall_cdf ~m t = cdf_equal ~m ~width:F.one t

  let irwin_hall_pdf ~m t =
    if m <= 0 then invalid_arg "Uniform_sum.irwin_hall_pdf: m";
    if F.leq t F.zero || F.leq (F.of_int m) t then F.zero
    else floor0 (ie_equal ~m ~width:F.one t (m - 1))
end

include Make (Field.Float)
module Q = Make (Field.Q)
