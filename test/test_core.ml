(* Tests for the paper's core results: Theorems 4.1, 4.3, 5.1, the
   optimality conditions, and the Section 5.2 case resolutions. *)

module R = Rat
module P = Poly

let rat = Alcotest.testable R.pp R.equal
let poly = Alcotest.testable P.pp P.equal

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let gen_prob_vector n =
  QCheck.Gen.(list_repeat n (map (fun k -> float_of_int k /. 20.) (int_range 0 20)))

let arb_alphas =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map string_of_float l))
    QCheck.Gen.(int_range 1 6 >>= gen_prob_vector)

(* ------------------------- Model ------------------------- *)

let model_tests =
  [
    Alcotest.test_case "instance validation" `Quick (fun () ->
      (try
         ignore (Model.instance ~n:0 ~delta:1.);
         Alcotest.fail "accepted n=0"
       with Invalid_argument _ -> ());
      try
        ignore (Model.instance ~n:3 ~delta:0.);
        Alcotest.fail "accepted delta=0"
      with Invalid_argument _ -> ());
    Alcotest.test_case "named instances" `Quick (fun () ->
      Alcotest.(check int) "py91 n" 3 Model.py91.Model.n;
      Alcotest.(check (float 0.)) "py91 delta" 1. Model.py91.Model.delta;
      let i4 = Model.scaled ~n:4 in
      Alcotest.(check (float 1e-15)) "scaled 4" (4. /. 3.) i4.Model.delta);
    Alcotest.test_case "play consistency" `Quick (fun () ->
      (* a rule plays as its protocol on the no-communication pattern *)
      let rng = Rng.create ~seed:3 in
      let a = [| 0.6; 0.5; 0.7; 0.3; 0.9 |] in
      let protocol = Mc_eval.protocol (Model.Single_threshold a) in
      let pattern = Comm_pattern.none ~n:5 in
      for _ = 1 to 200 do
        let o = Engine.run_once rng ~delta:1.4 pattern protocol in
        let s0 = ref 0. and s1 = ref 0. in
        Array.iteri
          (fun i d ->
            let expect = if o.Engine.inputs.(i) <= a.(i) then 0 else 1 in
            Alcotest.(check int) "threshold decision" expect d;
            if d = 0 then s0 := !s0 +. o.Engine.inputs.(i) else s1 := !s1 +. o.Engine.inputs.(i))
          o.Engine.decisions;
        Alcotest.(check (float 1e-12)) "load0" !s0 o.Engine.load0;
        Alcotest.(check (float 1e-12)) "load1" !s1 o.Engine.load1;
        Alcotest.(check bool) "win" (!s0 <= 1.4 && !s1 <= 1.4) o.Engine.win
      done);
    Alcotest.test_case "threshold rule is deterministic" `Quick (fun () ->
      let p = Mc_eval.protocol (Model.Single_threshold [| 0.5 |]) in
      let at own = Dist_protocol.decide p { Dist_protocol.me = 0; own; others = [] } in
      Alcotest.(check (float 0.)) "below" 1. (at 0.4);
      Alcotest.(check (float 0.)) "at" 1. (at 0.5);
      Alcotest.(check (float 0.)) "above" 0. (at 0.51));
    Alcotest.test_case "custom rule probabilities" `Quick (fun () ->
      let rng = Rng.create ~seed:5 in
      let p = Mc_eval.protocol (Model.Custom (fun _ x -> x)) in
      let pattern = Comm_pattern.none ~n:1 in
      (* decision 0 with probability x on U[0,1] inputs: in each input
         decile the bin-0 rate tracks the decile's mean input (~20000 plays
         a decile, so 0.02 is 5.7 standard errors at worst) *)
      let plays = Array.make 10 0 and zeros = Array.make 10 0 and sums = Array.make 10 0. in
      for _ = 1 to 200_000 do
        let o = Engine.run_once rng ~delta:1. pattern p in
        let x = o.Engine.inputs.(0) in
        let d = min 9 (int_of_float (x *. 10.)) in
        plays.(d) <- plays.(d) + 1;
        sums.(d) <- sums.(d) +. x;
        if o.Engine.decisions.(0) = 0 then zeros.(d) <- zeros.(d) + 1
      done;
      Array.iteri
        (fun d k ->
          let rate = float_of_int zeros.(d) /. float_of_int k in
          let mean = sums.(d) /. float_of_int k in
          Alcotest.(check bool)
            (Printf.sprintf "decile %d: rate %.4f vs mean %.4f" d rate mean)
            true
            (Float.abs (rate -. mean) < 0.02))
        plays);
  ]

(* ------------------------- Oblivious (Section 4) ------------------------- *)

let oblivious_tests =
  [
    Alcotest.test_case "phi symmetry (Lemma 4.4)" `Quick (fun () ->
      for n = 1 to 8 do
        let delta = float_of_int n /. 3. in
        for k = 0 to n do
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "n=%d k=%d" n k)
            (Oblivious.phi ~n ~delta k)
            (Oblivious.phi ~n ~delta (n - k))
        done
      done);
    Alcotest.test_case "n=2 delta=1 exact value" `Quick (fun () ->
      (* P = (1/4)(phi(0) + 2 phi(1) + phi(2)); phi(0)=F(2,1)=1/2, phi(1)=1,
         phi(2)=1/2 -> P = (1/4)(1/2 + 2 + 1/2) = 3/4 *)
      Alcotest.check rat "closed form" (R.of_ints 3 4)
        (Oblivious.Q.winning_probability_uniform ~n:2 ~delta:R.one));
    Alcotest.test_case "n=3 delta=1 exact value" `Quick (fun () ->
      (* phi(0)=phi(3)=1/6, phi(1)=phi(2)=1*1/2 -> (1/8)(1/6+3*1/2+3*1/2+1/6)=5/12 *)
      Alcotest.check rat "closed form" (R.of_ints 5 12)
        (Oblivious.Q.winning_probability_uniform ~n:3 ~delta:R.one));
    Alcotest.test_case "uniform closed form equals general evaluator" `Quick (fun () ->
      for n = 1 to 9 do
        let delta = 0.4 +. (0.3 *. float_of_int n) in
        Alcotest.(check (float 1e-12))
          (Printf.sprintf "n=%d" n)
          (Oblivious.winning_probability_uniform ~n ~delta)
          (Oblivious.winning_probability ~delta (Array.make n 0.5));
        let delta = R.of_ints (4 + (3 * n)) 10 in
        Alcotest.check rat
          (Printf.sprintf "exact n=%d" n)
          (Oblivious.Q.winning_probability_uniform ~n ~delta)
          (Oblivious.Q.winning_probability ~delta (Array.make n R.half))
      done);
    Alcotest.test_case "Thm 4.1 against explicit 2^n enumeration" `Quick (fun () ->
      (* independent check: direct sum over decision vectors *)
      let n = 4 and delta = 1.2 in
      let alphas = [| 0.3; 0.8; 0.5; 0.65 |] in
      let direct =
        Combinat.fold_subsets ~n ~init:0. ~f:(fun acc mask ->
          let p = ref 1. and ones = Combinat.popcount mask in
          for i = 0 to n - 1 do
            p := !p *. (if mask land (1 lsl i) <> 0 then 1. -. alphas.(i) else alphas.(i))
          done;
          acc
          +. (!p
             *. Uniform_sum.irwin_hall_cdf ~m:ones delta
             *. Uniform_sum.irwin_hall_cdf ~m:(n - ones) delta))
      in
      Alcotest.(check (float 1e-12)) "match" direct
        (Oblivious.winning_probability ~delta alphas));
    Alcotest.test_case "optimality residual vanishes at 1/2 (Thm 4.3)" `Quick (fun () ->
      for n = 2 to 8 do
        let delta = float_of_int n /. 3. in
        let alphas = Array.make n 0.5 in
        for k = 0 to n - 1 do
          Alcotest.(check (float 1e-13))
            (Printf.sprintf "n=%d k=%d" n k)
            0.
            (Oblivious.optimality_residual ~delta alphas k)
        done
      done);
    Alcotest.test_case "residual is exactly zero in rational arithmetic" `Quick (fun () ->
      let n = 5 in
      let delta = R.of_ints 5 3 in
      let alphas = Array.make n R.half in
      for k = 0 to n - 1 do
        Alcotest.check rat
          (Printf.sprintf "k=%d" k)
          R.zero
          (Oblivious.Q.optimality_residual ~delta alphas k)
      done);
    Alcotest.test_case "rho polynomial is antisymmetric with root 1" `Quick (fun () ->
      for n = 2 to 8 do
        let delta = R.of_ints n 3 in
        let p = Oblivious.rho_condition_poly ~n ~delta in
        Alcotest.check rat (Printf.sprintf "root at 1, n=%d" n) R.zero (P.eval p R.one);
        (* coefficient antisymmetry c_r = -c_{n-1-r} *)
        for r = 0 to n - 1 do
          Alcotest.check rat
            (Printf.sprintf "antisym n=%d r=%d" n r)
            (P.coeff p r)
            (R.neg (P.coeff p (n - 1 - r)))
        done
      done);
    Alcotest.test_case "symmetric polynomial peaks exactly at 1/2" `Quick (fun () ->
      List.iter
        (fun (n, delta) ->
          let sp = Oblivious.symmetric_poly ~n ~delta in
          (* stationary points of P(alpha) in (0,1) *)
          let d = P.derivative sp in
          let roots = Roots.root_floats d ~lo:R.zero ~hi:R.one in
          let interior = List.filter (fun r -> r > 1e-9 && r < 1. -. 1e-9) roots in
          Alcotest.(check (list (float 1e-9))) (Printf.sprintf "n=%d" n) [ 0.5 ] interior;
          (* and it is a maximum *)
          let v_half = R.to_float (P.eval sp R.half) in
          Alcotest.(check bool) "max" true
            (v_half >= P.eval_float sp 0.3 && v_half >= P.eval_float sp 0.7))
        [ (2, R.one); (3, R.one); (4, R.of_ints 4 3); (5, R.of_ints 5 3); (6, R.two) ]);
    Alcotest.test_case "optimal_partition is the cube-global optimum" `Quick (fun () ->
      (* multilinearity: no probability vector can beat the best vertex *)
      let n = 4 and delta = 4. /. 3. in
      let k_star, p_star = Oblivious.optimal_partition ~n ~delta in
      Alcotest.(check int) "balanced split" 2 k_star;
      (* phi(2) = F_IH(2, 4/3)^2 = (7/9)^2 = 49/81 *)
      Alcotest.(check (float 1e-12)) "49/81" (49. /. 81.) p_star;
      let rng = Rng.create ~seed:17 in
      for _ = 1 to 50 do
        let alphas = Array.init n (fun _ -> Rng.float01 rng) in
        Alcotest.(check bool) "dominates" true
          (p_star >= Oblivious.winning_probability ~delta alphas -. 1e-12)
      done;
      (* exact rational version agrees *)
      let k_r, p_r = Oblivious.Q.optimal_partition ~n ~delta:(R.of_ints 4 3) in
      Alcotest.(check int) "k" k_star k_r;
      Alcotest.check rat "exact" (R.of_ints 49 81) p_r);
    Alcotest.test_case "anonymity caveat: asymmetric vectors can beat 1/2" `Quick (fun () ->
      (* Reproduction note (recorded in DESIGN.md): Theorem 4.3's optimality
         of alpha = 1/2 is within anonymous (exchangeable) algorithms — the
         interior stationary point of the multilinear winning probability.
         Player-asymmetric deterministic assignments, which hard-partition
         the players between the bins, can do strictly better. *)
      let delta = 1.25 in
      let half = Oblivious.winning_probability_uniform ~n:3 ~delta in
      let split = Oblivious.winning_probability ~delta [| 0.; 1.; 1. |] in
      Alcotest.(check bool) "deterministic split wins" true (split > half));
    Alcotest.test_case "symmetric poly evaluates like the vector evaluator" `Quick (fun () ->
      let n = 5 in
      let delta = R.of_ints 5 3 in
      let sp = Oblivious.symmetric_poly ~n ~delta in
      List.iter
        (fun a ->
          let av = R.of_float a in
          Alcotest.check rat
            (Printf.sprintf "alpha=%.2f" a)
            (P.eval sp av)
            (Oblivious.Q.winning_probability ~delta (Array.make n av)))
        [ 0.; 0.25; 0.5; 0.9; 1. ]);
    Alcotest.test_case "probabilities outside [0,1] are rejected in both fields" `Quick
      (fun () ->
        let rejects what f =
          match f () with
          | _ -> Alcotest.failf "%s accepted alpha = 3/2" what
          | exception Invalid_argument _ -> ()
        in
        rejects "float" (fun () -> Oblivious.winning_probability ~delta:1. [| 0.5; 1.5 |]);
        rejects "exact" (fun () ->
          Oblivious.Q.winning_probability ~delta:R.one [| R.half; R.of_ints 3 2 |]));
  ]

let oblivious_props =
  [
    qtest "float and rational evaluators agree" arb_alphas (fun alphas ->
      let a = Array.of_list alphas in
      let delta = 1. +. (0.1 *. float_of_int (Array.length a)) in
      let fl = Oblivious.winning_probability ~delta a in
      let ex =
        Oblivious.Q.winning_probability ~delta:(R.of_float delta) (Array.map R.of_float a)
      in
      abs_float (fl -. R.to_float ex) <= 1e-10);
    qtest ~count:25 "Thm 4.1 agrees with Monte-Carlo" arb_alphas (fun alphas ->
      let a = Array.of_list alphas in
      let n = Array.length a in
      let delta = 0.5 +. (float_of_int n /. 4.) in
      let inst = Model.instance ~n ~delta in
      let rng = Rng.create ~seed:(Hashtbl.hash alphas) in
      let est = Mc_eval.winning_probability ~rng ~samples:60_000 inst (Model.Oblivious a) in
      (* 5-sigma: fresh random cases every run *)
      abs_float (est.Mc.mean -. Oblivious.winning_probability ~delta a)
      <= (5. *. est.Mc.stderr) +. 1e-4);
    qtest "1/2 is optimal among common-alpha algorithms (Thm 4.3)"
      (QCheck.pair (QCheck.int_range 1 7) (QCheck.int_range 0 20))
      (fun (n, k) ->
        let alpha = float_of_int k /. 20. in
        let delta = 0.5 +. (float_of_int n /. 4.) in
        Oblivious.winning_probability_uniform ~n ~delta
        >= Oblivious.winning_probability ~delta (Array.make n alpha) -. 1e-12);
  ]

(* ------------------------- Threshold (Section 5) ------------------------- *)

let threshold_tests =
  [
    Alcotest.test_case "sharded subset fold is bit-identical across -j 1/2/8" `Quick (fun () ->
      (* an asymmetric vector so every one of the 2^n terms is distinct *)
      let a = Array.init 11 (fun i -> 0.15 +. (0.07 *. float_of_int i)) in
      let delta = 11. /. 3. in
      let p j = Threshold.winning_probability ~domains:j ~delta a in
      let p1 = p 1 in
      List.iter
        (fun j -> Alcotest.(check (float 0.)) (Printf.sprintf "domains=%d" j) p1 (p j))
        [ 2; 8 ];
      (* the exact fold over Q at a_i = (15 + 7i)/100: the float fold's own
         inclusion-exclusion cancellation is ~3e-12 here, the lease
         regrouping only roundoff on top of it *)
      let exact =
        Threshold.Q.winning_probability ~delta:(Rat.of_ints 11 3)
          (Array.init 11 (fun i -> Rat.of_ints (15 + (7 * i)) 100))
      in
      Alcotest.(check bool) "matches the sequential fold" true
        (Float.abs (p1 -. Rat.to_float exact) < 1e-10);
      (* leases beyond the subset count are harmless (n=2 has 4 terms) *)
      let tiny = [| 0.3; 0.8 |] in
      Alcotest.(check (float 0.)) "leases > subsets"
        (Threshold.winning_probability ~domains:2 ~delta:(2. /. 3.) tiny)
        (Threshold.winning_probability ~domains:1 ~delta:(2. /. 3.) tiny));
    Alcotest.test_case "symmetric collapse equals general evaluator" `Quick (fun () ->
      for n = 1 to 8 do
        let delta = float_of_int n /. 3. and delta_q = R.of_ints n 3 in
        List.iter
          (fun (beta, beta_q) ->
            Alcotest.(check (float 1e-10))
              (Printf.sprintf "n=%d beta=%.2f" n beta)
              (Threshold.winning_probability ~delta (Array.make n beta))
              (Threshold.winning_probability_sym ~n ~delta beta);
            Alcotest.check rat
              (Printf.sprintf "exact n=%d beta=%.2f" n beta)
              (Threshold.Q.winning_probability ~delta:delta_q (Array.make n beta_q))
              (Threshold.Q.winning_probability_sym ~n ~delta:delta_q beta_q))
          [
            (0., R.zero); (0.2, R.of_ints 1 5); (0.5, R.half); (0.622, R.of_ints 311 500);
            (0.9, R.of_ints 9 10); (1., R.one);
          ]
      done);
    Alcotest.test_case "rational and float evaluators agree" `Quick (fun () ->
      let a = [| 0.25; 0.75; 0.5 |] in
      let fl = Threshold.winning_probability ~delta:1. a in
      let ex = Threshold.Q.winning_probability ~delta:R.one (Array.map R.of_float a) in
      Alcotest.(check (float 1e-12)) "agree" fl (R.to_float ex));
    Alcotest.test_case "paper S5.2.1 exact values on the curve" `Quick (fun () ->
      (* P(1/2) = 23/48 from the first piece *)
      Alcotest.check rat "P(1/2)" (R.of_string "23/48")
        (Threshold.Q.winning_probability_sym ~n:3 ~delta:R.one R.half);
      (* P(0): everyone picks bin 1; P = F_IH(3, 1) = 1/6 *)
      Alcotest.check rat "P(0)" (R.of_ints 1 6)
        (Threshold.Q.winning_probability_sym ~n:3 ~delta:R.one R.zero);
      (* P(1): everyone picks bin 0; same by symmetry *)
      Alcotest.check rat "P(1)" (R.of_ints 1 6)
        (Threshold.Q.winning_probability_sym ~n:3 ~delta:R.one R.one));
    Alcotest.test_case "numeric optimum matches the certified one (T1)" `Quick (fun () ->
      let beta, value = Threshold.optimum_sym ~n:3 ~delta:1. () in
      Alcotest.(check (float 1e-6)) "beta*" (1. -. sqrt (1. /. 7.)) beta;
      Alcotest.(check (float 1e-9)) "P*" ((1. /. 6.) +. (1. /. sqrt 7.)) value);
    Alcotest.test_case "optimality residual changes sign at beta* (Thm 5.2)" `Quick (fun () ->
      let r_lo = Threshold.optimality_residual_sym ~n:3 ~delta:1. 0.60 in
      let r_hi = Threshold.optimality_residual_sym ~n:3 ~delta:1. 0.64 in
      Alcotest.(check bool) "increasing below" true (r_lo > 0.);
      Alcotest.(check bool) "decreasing above" true (r_hi < 0.));
    Alcotest.test_case "degenerate thresholds" `Quick (fun () ->
      (* all zeros: everyone in bin 1 *)
      Alcotest.(check (float 1e-12)) "all zero"
        (Uniform_sum.irwin_hall_cdf ~m:4 1.3)
        (Threshold.winning_probability ~delta:1.3 (Array.make 4 0.));
      (* all ones: everyone in bin 0 *)
      Alcotest.(check (float 1e-12)) "all one"
        (Uniform_sum.irwin_hall_cdf ~m:4 1.3)
        (Threshold.winning_probability ~delta:1.3 (Array.make 4 1.)));
    Alcotest.test_case "threshold validation" `Quick (fun () ->
      List.iter
        (fun a ->
          match Threshold.winning_probability ~delta:1. a with
          | p -> Alcotest.failf "accepted threshold %g: %g" a.(0) p
          | exception Invalid_argument _ -> ())
        [ [| 1.5 |]; [| Float.nan; 0.5 |] ]);
  ]

let gen_thresholds =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    list_repeat n (map (fun k -> float_of_int k /. 20.) (int_range 0 20)))

let arb_thresholds =
  QCheck.make ~print:(fun l -> String.concat ";" (List.map string_of_float l)) gen_thresholds

let threshold_props =
  [
    qtest ~count:25 "Thm 5.1 agrees with Monte-Carlo" arb_thresholds (fun ts ->
      let a = Array.of_list ts in
      let n = Array.length a in
      let delta = 0.6 +. (float_of_int n /. 4.) in
      let inst = Model.instance ~n ~delta in
      let rng = Rng.create ~seed:(Hashtbl.hash ts) in
      let est = Mc_eval.winning_probability ~rng ~samples:60_000 inst (Model.Single_threshold a) in
      abs_float (est.Mc.mean -. Threshold.winning_probability ~delta a)
      <= (5. *. est.Mc.stderr) +. 1e-4);
    qtest "probability bounds" arb_thresholds (fun ts ->
      let a = Array.of_list ts in
      let delta = 1.0 in
      let p = Threshold.winning_probability ~delta a in
      p >= -1e-12 && p <= 1. +. 1e-12);
    qtest "winning probability grows with delta" arb_thresholds (fun ts ->
      let a = Array.of_list ts in
      Threshold.winning_probability ~delta:0.8 a
      <= Threshold.winning_probability ~delta:1.6 a +. 1e-12);
  ]

(* ------------------------- Symbolic (Section 5.2) ------------------------- *)

let symbolic_tests =
  [
    Alcotest.test_case "S5.2.1 pieces match the paper exactly" `Quick (fun () ->
      let curve = Symbolic.sym_threshold_curve ~n:3 ~delta:R.one in
      let low = P.of_string_list [ "1/6"; "0"; "3/2"; "-1/2" ] in
      let high = P.of_string_list [ "-11/6"; "9"; "-21/2"; "7/2" ] in
      match Piecewise.pieces curve with
      | [ p1; p2; p3 ] ->
        Alcotest.check poly "piece [0,1/3]" low p1.Piecewise.poly;
        Alcotest.check poly "piece [1/3,1/2]" low p2.Piecewise.poly;
        Alcotest.check poly "piece [1/2,1]" high p3.Piecewise.poly;
        Alcotest.check rat "breakpoint 1/3" (R.of_ints 1 3) p1.Piecewise.hi;
        Alcotest.check rat "breakpoint 1/2" R.half p2.Piecewise.hi
      | ps -> Alcotest.fail (Printf.sprintf "expected 3 pieces, got %d" (List.length ps)));
    Alcotest.test_case "T1 certified optimum" `Quick (fun () ->
      let res = Symbolic.optimal_sym_threshold ~n:3 ~delta:R.one () in
      Alcotest.(check (float 1e-12)) "beta* = 1 - sqrt(1/7)" (1. -. sqrt (1. /. 7.))
        (R.to_float res.Piecewise.argmax);
      (* substituting beta* into the high piece collapses to P* = 1/6 + 1/sqrt 7 *)
      Alcotest.(check (float 1e-12)) "P* = 1/6 + 1/sqrt(7)"
        ((1. /. 6.) +. (1. /. sqrt 7.))
        (R.to_float res.Piecewise.value));
    Alcotest.test_case "T1 optimality condition is beta^2 - 2 beta + 6/7" `Quick (fun () ->
      let res = Symbolic.optimal_sym_threshold ~n:3 ~delta:R.one () in
      let s =
        List.find
          (fun (s : Piecewise.stationary) ->
            R.compare (R.mid s.location.Roots.lo s.location.Roots.hi) R.half > 0)
          res.Piecewise.stationaries
      in
      Alcotest.check poly "monic condition"
        (P.of_string_list [ "6/7"; "-2"; "1" ])
        (Symbolic.monic_condition s.Piecewise.condition));
    Alcotest.test_case "T2 (n=4, delta=4/3) optimum near the paper's 0.678" `Quick (fun () ->
      let res = Symbolic.optimal_sym_threshold ~n:4 ~delta:(R.of_ints 4 3) () in
      Alcotest.(check (float 5e-4)) "beta*" 0.678 (R.to_float res.Piecewise.argmax);
      (* regression pin for the exact values we derive *)
      Alcotest.(check (float 1e-9)) "beta* precise" 0.6779978416 (R.to_float res.Piecewise.argmax);
      Alcotest.(check (float 1e-9)) "P* precise" 0.4285394210 (R.to_float res.Piecewise.value));
    Alcotest.test_case "curve equals direct evaluator everywhere (exact)" `Quick (fun () ->
      List.iter
        (fun (n, delta) ->
          let curve = Symbolic.sym_threshold_curve ~n ~delta in
          Alcotest.(check bool) "continuous" true (Piecewise.is_continuous curve);
          for i = 0 to 30 do
            let b = R.of_ints i 30 in
            Alcotest.check rat
              (Printf.sprintf "n=%d i=%d" n i)
              (Threshold.Q.winning_probability_sym ~n ~delta b)
              (Piecewise.eval curve b)
          done)
        [ (2, R.one); (3, R.one); (4, R.of_ints 4 3); (5, R.of_ints 5 3); (6, R.two); (3, R.of_ints 1 2) ]);
    Alcotest.test_case "piece degrees bounded by n" `Quick (fun () ->
      let curve = Symbolic.sym_threshold_curve ~n:6 ~delta:R.two in
      List.iter
        (fun (p : Piecewise.piece) ->
          Alcotest.(check bool) "degree" true (P.degree p.Piecewise.poly <= 6))
        (Piecewise.pieces curve));
    Alcotest.test_case "breakpoints are sorted and interior" `Quick (fun () ->
      let bps = Symbolic.breakpoints ~n:5 ~delta:(R.of_ints 5 3) in
      let rec sorted = function
        | a :: (b :: _ as rest) -> R.compare a b < 0 && sorted rest
        | _ -> true
      in
      Alcotest.(check bool) "sorted strictly" true (sorted bps);
      Alcotest.check rat "starts at 0" R.zero (List.hd bps);
      Alcotest.check rat "ends at 1" R.one (List.nth bps (List.length bps - 1)));
    Alcotest.test_case "delta >= n makes the curve constant 1" `Quick (fun () ->
      (* capacity n always suffices: sum of all inputs <= n *)
      let curve = Symbolic.sym_threshold_curve ~n:3 ~delta:(R.of_int 3) in
      List.iter
        (fun (p : Piecewise.piece) -> Alcotest.check poly "one" P.one p.Piecewise.poly)
        (Piecewise.pieces curve));
  ]

(* ------------------------- unequal capacities ------------------------- *)

let caps_tests =
  [
    Alcotest.test_case "equal caps degenerate to the plain evaluators" `Quick (fun () ->
      let a = [| 0.3; 0.7; 0.55 |] in
      Alcotest.(check (float 1e-12)) "threshold"
        (Threshold.winning_probability ~delta:1.1 a)
        (Threshold.winning_probability_caps ~delta0:1.1 ~delta1:1.1 a);
      Alcotest.(check (float 1e-12)) "oblivious"
        (Oblivious.winning_probability ~delta:1.1 a)
        (Oblivious.winning_probability_caps ~delta0:1.1 ~delta1:1.1 a);
      Alcotest.(check (float 1e-12)) "symmetric"
        (Threshold.winning_probability_sym ~n:4 ~delta:1.2 0.6)
        (Threshold.winning_probability_sym_caps ~n:4 ~delta0:1.2 ~delta1:1.2 0.6);
      let a = [| R.of_ints 3 10; R.of_ints 7 10; R.of_ints 11 20 |] and d = R.of_ints 11 10 in
      Alcotest.check rat "exact threshold"
        (Threshold.Q.winning_probability ~delta:d a)
        (Threshold.Q.winning_probability_caps ~delta0:d ~delta1:d a);
      Alcotest.check rat "exact oblivious"
        (Oblivious.Q.winning_probability ~delta:d a)
        (Oblivious.Q.winning_probability_caps ~delta0:d ~delta1:d a);
      let d = R.of_ints 6 5 and beta = R.of_ints 3 5 in
      Alcotest.check rat "exact symmetric"
        (Threshold.Q.winning_probability_sym ~n:4 ~delta:d beta)
        (Threshold.Q.winning_probability_sym_caps ~n:4 ~delta0:d ~delta1:d beta));
    Alcotest.test_case "huge bin-0 capacity leaves only the bin-1 constraint" `Quick (fun () ->
      (* with delta0 >= n, bin 0 never overflows; P = P(sum of bin-1 inputs <= delta1) *)
      let n = 3 and beta = 0.6 and delta1 = 0.9 in
      let via_caps = Threshold.winning_probability_sym_caps ~n ~delta0:10. ~delta1 beta in
      (* direct: sum over k of C(n,k) beta^(n-k) (1-beta)^k F1(k) *)
      let direct = ref 0. in
      for k = 0 to n do
        direct :=
          !direct
          +. Bigint.to_float (Combinat.binomial n k)
             *. Combinat.int_pow beta (n - k)
             *. Combinat.int_pow (1. -. beta) k
             *. Uniform_sum.cdf_equal_shifted ~m:k ~lower:beta delta1
      done;
      Alcotest.(check (float 1e-12)) "match" !direct via_caps);
    Alcotest.test_case "caps evaluators agree with Monte-Carlo" `Quick (fun () ->
      let rng = Rng.create ~seed:4242 in
      let a = [| 0.5; 0.8; 0.35; 0.6 |] in
      let delta0 = 1.4 and delta1 = 0.9 in
      let exact = Threshold.winning_probability_caps ~delta0 ~delta1 a in
      let est =
        Mc.probability ~rng ~samples:200_000 (fun rng ->
          let xs = Array.init 4 (fun _ -> Rng.float01 rng) in
          let l0 = ref 0. and l1 = ref 0. in
          Array.iteri (fun i x -> if x <= a.(i) then l0 := !l0 +. x else l1 := !l1 +. x) xs;
          !l0 <= delta0 && !l1 <= delta1)
      in
      Alcotest.(check bool) "threshold caps" true (Mc.agrees est exact);
      let alphas = [| 0.3; 0.6; 0.8; 0.5 |] in
      let exact = Oblivious.winning_probability_caps ~delta0 ~delta1 alphas in
      let est =
        Mc.probability ~rng ~samples:200_000 (fun rng ->
          let l0 = ref 0. and l1 = ref 0. in
          Array.iter2
            (fun alpha x -> if Rng.bernoulli rng alpha then l0 := !l0 +. x else l1 := !l1 +. x)
            alphas
            (Array.init 4 (fun _ -> Rng.float01 rng));
          !l0 <= delta0 && !l1 <= delta1)
      in
      Alcotest.(check bool) "oblivious caps" true (Mc.agrees est exact));
    Alcotest.test_case "symbolic caps curve equals the float evaluator" `Quick (fun () ->
      let n = 3 in
      let d0 = R.of_ints 3 2 and d1 = R.of_ints 3 4 in
      let curve = Symbolic.sym_threshold_curve_caps ~n ~delta0:d0 ~delta1:d1 in
      Alcotest.(check bool) "continuous" true (Piecewise.is_continuous curve);
      for i = 0 to 20 do
        let beta = float_of_int i /. 20. in
        Alcotest.(check (float 1e-10))
          (Printf.sprintf "beta=%.2f" beta)
          (Threshold.winning_probability_sym_caps ~n ~delta0:1.5 ~delta1:0.75 beta)
          (Piecewise.eval_float curve beta)
      done);
    Alcotest.test_case "asymmetric capacity shifts the optimum threshold" `Quick (fun () ->
      (* more room in bin 0 -> a higher optimal threshold sends more players there *)
      let opt d0 d1 =
        (Piecewise.maximize (Symbolic.sym_threshold_curve_caps ~n:3 ~delta0:d0 ~delta1:d1))
          .Piecewise.argmax
      in
      let lo = opt (R.of_ints 3 4) (R.of_ints 3 2) in
      let hi = opt (R.of_ints 3 2) (R.of_ints 3 4) in
      Alcotest.(check bool) "monotone shift" true (R.compare lo hi < 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:40 ~name:"symbolic caps curve equals exact evaluator (random caps)"
         (QCheck.triple (QCheck.int_range 1 5) (QCheck.int_range 1 24) (QCheck.int_range 1 24))
         (fun (n, d0_num, d1_num) ->
           let delta0 = R.of_ints d0_num 8 and delta1 = R.of_ints d1_num 8 in
           let curve = Symbolic.sym_threshold_curve_caps ~n ~delta0 ~delta1 in
           Piecewise.is_continuous curve
           && List.for_all
                (fun i ->
                  let b = R.of_ints i 10 in
                  R.equal (Piecewise.eval curve b)
                    (Threshold.Q.winning_probability_sym_caps ~n ~delta0 ~delta1 b))
                (List.init 11 Fun.id)));
    Alcotest.test_case "Thm 5.2 conditions via optimality_conditions" `Quick (fun () ->
      match Symbolic.optimality_conditions ~n:3 ~delta:R.one with
      | [ (_, _, c1); (_, _, c2); (_, _, c3) ] ->
        Alcotest.check poly "pieces 1-2 share the condition" c1 c2;
        Alcotest.check poly "high piece condition"
          (P.of_string_list [ "6/7"; "-2"; "1" ])
          (Symbolic.monic_condition c3)
      | l -> Alcotest.fail (Printf.sprintf "expected 3 conditions, got %d" (List.length l)));
  ]

(* ------------------------- banded randomized rules ------------------------- *)

let banded_tests =
  [
    Alcotest.test_case "degenerations: threshold and coin" `Quick (fun () ->
      let n = 4 and delta = 4. /. 3. in
      Alcotest.(check (float 1e-12)) "q=1 is threshold t2"
        (Threshold.winning_probability_sym ~n ~delta 0.678)
        (Banded.winning_probability ~n ~delta { Banded.t1 = 0.3; t2 = 0.678; q = 1. });
      Alcotest.(check (float 1e-12)) "q=0 is threshold t1"
        (Threshold.winning_probability_sym ~n ~delta 0.3)
        (Banded.winning_probability ~n ~delta { Banded.t1 = 0.3; t2 = 0.9; q = 0. });
      Alcotest.(check (float 1e-12)) "full band is the coin"
        (Oblivious.winning_probability_uniform ~n ~delta)
        (Banded.winning_probability ~n ~delta Banded.fair_coin);
      Alcotest.(check (float 1e-12)) "of_threshold"
        (Threshold.winning_probability_sym ~n ~delta 0.5)
        (Banded.winning_probability ~n ~delta (Banded.of_threshold 0.5));
      let delta = R.of_ints 4 3 and t = R.of_ints 339 500 and t1 = R.of_ints 3 10 in
      let band t1 t2 q = Banded.Q.winning_probability ~n ~delta { Banded.t1; t2; q } in
      Alcotest.check rat "exact q=1 is threshold t2"
        (Threshold.Q.winning_probability_sym ~n ~delta t)
        (band t1 t R.one);
      Alcotest.check rat "exact q=0 is threshold t1"
        (Threshold.Q.winning_probability_sym ~n ~delta t1)
        (band t1 (R.of_ints 9 10) R.zero);
      Alcotest.check rat "exact full band is the coin"
        (Oblivious.Q.winning_probability_uniform ~n ~delta)
        (band R.zero R.one R.half);
      Alcotest.check rat "exact of_threshold"
        (Threshold.Q.winning_probability_sym ~n ~delta R.half)
        (band R.half R.half R.one));
    Alcotest.test_case "float and rational evaluators agree" `Quick (fun () ->
      let t1 = 0.0625 and t2 = 0.75 and q = 0.8125 in
      let fl =
        Banded.winning_probability ~n:4 ~delta:(4. /. 3.) { Banded.t1; t2; q }
      in
      let ex =
        Banded.Q.winning_probability ~n:4 ~delta:(R.of_ints 4 3)
          { Banded.t1 = R.of_float t1; t2 = R.of_float t2; q = R.of_float q }
      in
      Alcotest.(check (float 1e-12)) "agree" fl (R.to_float ex));
    Alcotest.test_case "exact evaluator agrees with simulation" `Quick (fun () ->
      let n = 3 and delta = 1. in
      let r = { Banded.t1 = 0.2; t2 = 0.8; q = 0.6 } in
      let exact = Banded.winning_probability ~n ~delta r in
      let rng = Rng.create ~seed:313 in
      let inst = Model.instance ~n ~delta in
      let est = Mc_eval.winning_probability ~rng ~samples:300_000 inst (Banded.to_rule r) in
      Alcotest.(check bool) "agrees" true (Mc.agrees est exact));
    Alcotest.test_case "prob_bin0 shape" `Quick (fun () ->
      let r = { Banded.t1 = 0.2; t2 = 0.8; q = 0.6 } in
      Alcotest.(check (float 0.)) "low" 1. (Banded.prob_bin0 r 0.1);
      Alcotest.(check (float 0.)) "band" 0.6 (Banded.prob_bin0 r 0.5);
      Alcotest.(check (float 0.)) "high" 0. (Banded.prob_bin0 r 0.9));
    Alcotest.test_case "validate rejects bad rules" `Quick (fun () ->
      (try
         Banded.validate { Banded.t1 = 0.8; t2 = 0.2; q = 0.5 };
         Alcotest.fail "accepted t1 > t2"
       with Invalid_argument _ -> ());
      try
        Banded.validate { Banded.t1 = 0.2; t2 = 0.8; q = 1.5 };
        Alcotest.fail "accepted q > 1"
      with Invalid_argument _ -> ());
    Alcotest.test_case "X3 exact: banded beats the coin at n=4, delta=4/3" `Quick (fun () ->
      let n = 4 and delta = 4. /. 3. in
      (* evaluate the known near-optimal rule exactly; no optimizer run *)
      let p =
        Banded.winning_probability ~n ~delta { Banded.t1 = 0.; t2 = 0.7304; q = 0.7865 }
      in
      let coin = Oblivious.winning_probability_uniform ~n ~delta in
      Alcotest.(check bool)
        (Printf.sprintf "%.6f > %.6f" p coin)
        true (p > coin +. 0.01);
      Alcotest.(check (float 1e-4)) "value" 0.4464863 p);
    Alcotest.test_case "q_polynomial equals the rational evaluator" `Quick (fun () ->
      let n = 4 and delta = R.of_ints 4 3 in
      let t1 = R.of_ints 1 16 and t2 = R.of_ints 3 4 in
      let p = Banded.q_polynomial ~n ~delta ~t1 ~t2 in
      Alcotest.(check bool) "degree <= n" true (P.degree p <= n);
      List.iter
        (fun qn ->
          let q = R.of_ints qn 8 in
          Alcotest.check rat
            (Printf.sprintf "q=%d/8" qn)
            (Banded.Q.winning_probability ~n ~delta { Banded.t1; t2; q })
            (P.eval p q))
        [ 0; 1; 3; 5; 8 ]);
    Alcotest.test_case "certified optimal q beats both endpoints" `Quick (fun () ->
      let n = 4 and delta = R.of_ints 4 3 in
      let t1 = R.zero and t2 = R.of_ints 73 100 in
      let p = Banded.q_polynomial ~n ~delta ~t1 ~t2 in
      let qstar, v = Banded.optimal_q ~n ~delta ~t1 ~t2 in
      Alcotest.(check bool) "beats q=0" true (R.compare v (P.eval p R.zero) >= 0);
      Alcotest.(check bool) "beats q=1" true (R.compare v (P.eval p R.one) >= 0);
      Alcotest.(check bool) "interior" true
        (Alg.to_float qstar > 0.01 && Alg.to_float qstar < 0.99);
      (* and the optimum beats the fair coin (X3, exactly) *)
      Alcotest.(check bool) "beats the coin" true
        (R.compare v (Oblivious.Q.winning_probability_uniform ~n ~delta) > 0));
    Alcotest.test_case "banded cannot beat the coin by much at large capacity" `Quick
      (fun () ->
        (* sanity: delta >= n makes everything win with probability 1 *)
        let p =
          Banded.winning_probability ~n:3 ~delta:3. { Banded.t1 = 0.25; t2 = 0.5; q = 0.3 }
        in
        Alcotest.(check (float 1e-12)) "certain win" 1. p);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:150 ~name:"banded probability bounds and delta monotonicity"
         (QCheck.quad (QCheck.int_range 1 5) (QCheck.int_range 0 10) (QCheck.int_range 0 10)
            (QCheck.int_range 0 10))
         (fun (n, a, b, qk) ->
           let t1 = float_of_int (min a b) /. 10. in
           let t2 = float_of_int (max a b) /. 10. in
           let r = { Banded.t1; t2; q = float_of_int qk /. 10. } in
           let p1 = Banded.winning_probability ~n ~delta:0.9 r in
           let p2 = Banded.winning_probability ~n ~delta:1.5 r in
           p1 >= -1e-12 && p1 <= 1. +. 1e-12 && p1 <= p2 +. 1e-10));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:60 ~name:"banded float matches exact rational"
         (QCheck.triple (QCheck.int_range 0 8) (QCheck.int_range 0 8) (QCheck.int_range 0 8))
         (fun (a, b, qk) ->
           let t1n = min a b and t2n = max a b in
           let fl =
             Banded.winning_probability ~n:3 ~delta:1.
               {
                 Banded.t1 = float_of_int t1n /. 8.;
                 t2 = float_of_int t2n /. 8.;
                 q = float_of_int qk /. 8.;
               }
           in
           let ex =
             Banded.Q.winning_probability ~n:3 ~delta:R.one
               { Banded.t1 = R.of_ints t1n 8; t2 = R.of_ints t2n 8; q = R.of_ints qk 8 }
           in
           abs_float (fl -. R.to_float ex) < 1e-10));
  ]

(* ------------------------- certified pipeline ------------------------- *)

let certified_tests =
  [
    Alcotest.test_case "certified pipeline agrees with the midpoint pipeline" `Quick (fun () ->
      List.iter
        (fun (n, delta) ->
          let plain = Symbolic.optimal_sym_threshold ~n ~delta () in
          let cert = Symbolic.optimal_sym_threshold_certified ~n ~delta () in
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "argmax n=%d" n)
            (R.to_float plain.Piecewise.argmax)
            (Alg.to_float cert.Piecewise.arg);
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "value n=%d" n)
            (R.to_float plain.Piecewise.value)
            (R.to_float (Interval.mid cert.Piecewise.value_enclosure)))
        [ (2, R.one); (3, R.one); (4, R.of_ints 4 3); (5, R.of_ints 5 3) ]);
    Alcotest.test_case "certified T1 optimum to 30 decimals" `Quick (fun () ->
      let cert = Symbolic.optimal_sym_threshold_certified ~n:3 ~delta:R.one () in
      Alcotest.(check string) "beta*" "0.622035526990772772785483463765"
        (Alg.to_decimal_string ~digits:30 cert.Piecewise.arg);
      (* P* = 1/6 + 1/sqrt(7) *)
      Alcotest.(check string) "P*" "0.544631139675893893881183202900"
        (R.to_decimal_string ~digits:30 cert.Piecewise.value_enclosure.Interval.lo));
    Alcotest.test_case "value enclosure is below the default eps" `Quick (fun () ->
      let cert = Symbolic.optimal_sym_threshold_certified ~n:4 ~delta:(R.of_ints 4 3) () in
      Alcotest.(check bool) "width" true
        (R.compare
           (Interval.width cert.Piecewise.value_enclosure)
           (R.of_string "1/1000000000000000000000000000000")
        < 0));
    Alcotest.test_case "optimize_vector: symmetric optimum is global at n=3" `Quick (fun () ->
      let x, v = Threshold.optimize_vector ~n:3 ~delta:1. () in
      Alcotest.(check (float 1e-6)) "value" ((1. /. 6.) +. (1. /. sqrt 7.)) v;
      Array.iter
        (fun xi -> Alcotest.(check (float 1e-4)) "coordinate" (1. -. sqrt (1. /. 7.)) xi)
        x);
    Alcotest.test_case "optimize_vector: hard partition dominates at n=4 (X4)" `Quick (fun () ->
      let _, v = Threshold.optimize_vector ~n:4 ~delta:(4. /. 3.) () in
      (* the 2/2 hard partition achieves F_IH(2,4/3)^2 = (7/9)^2 = 49/81 *)
      Alcotest.(check (float 1e-6)) "49/81" (49. /. 81.) v);
    Alcotest.test_case "capacity sweep pins the n=3 inversion at delta = 3/2 (X5)" `Quick
      (fun () ->
        let delta = R.of_ints 3 2 in
        let obl = Oblivious.Q.winning_probability_uniform ~n:3 ~delta in
        let thr = (Symbolic.optimal_sym_threshold ~n:3 ~delta ()).Piecewise.value in
        Alcotest.check rat "oblivious exact" (R.of_string "25/32") obl;
        Alcotest.(check bool) "coin wins at 3/2" true (R.compare thr obl < 0);
        (* while at delta = 11/8 the threshold still wins *)
        let delta = R.of_ints 11 8 in
        let obl = Oblivious.Q.winning_probability_uniform ~n:3 ~delta in
        let thr = (Symbolic.optimal_sym_threshold ~n:3 ~delta ()).Piecewise.value in
        Alcotest.(check bool) "threshold wins at 11/8" true (R.compare thr obl > 0));
  ]

(* ------------------------- T3/T4 trade-off ------------------------- *)

let tradeoff_tests =
  [
    Alcotest.test_case "non-oblivious beats oblivious (T4)" `Quick (fun () ->
      List.iter
        (fun (n, delta) ->
          let obl = Oblivious.Q.winning_probability_uniform ~n ~delta in
          let res = Symbolic.optimal_sym_threshold ~n ~delta () in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d" n)
            true
            (R.compare res.Piecewise.value obl > 0))
        [ (2, R.one); (3, R.one); (5, R.of_ints 5 3); (6, R.two) ]);
    Alcotest.test_case "reproduction finding: inversion at n=4, delta=4/3" `Quick (fun () ->
      (* The paper claims the optimal non-oblivious algorithm improves on the
         oblivious optimum in both studied cases. Exact computation (verified
         independently by Monte-Carlo, see EXPERIMENTS.md) shows the common
         single-threshold optimum at n=4, delta=4/3 in fact loses to the fair
         coin: 0.42854 < 0.43133. We pin this inversion. *)
      let delta = R.of_ints 4 3 in
      let obl = Oblivious.Q.winning_probability_uniform ~n:4 ~delta in
      let res = Symbolic.optimal_sym_threshold ~n:4 ~delta () in
      Alcotest.(check bool) "threshold loses" true (R.compare res.Piecewise.value obl < 0);
      Alcotest.(check (float 1e-9)) "oblivious value" (559. /. 1296.) (R.to_float obl));
    Alcotest.test_case "optimal threshold is non-uniform across n (S5.2)" `Quick (fun () ->
      let b3 = (Symbolic.optimal_sym_threshold ~n:3 ~delta:R.one ()).Piecewise.argmax in
      let b4 = (Symbolic.optimal_sym_threshold ~n:4 ~delta:(R.of_ints 4 3) ()).Piecewise.argmax in
      Alcotest.(check bool) "different optima" true
        (abs_float (R.to_float b3 -. R.to_float b4) > 0.01));
    Alcotest.test_case "mc_eval matches closed forms on py91" `Quick (fun () ->
      let rng = Rng.create ~seed:2024 in
      let beta = 1. -. sqrt (1. /. 7.) in
      let est =
        Mc_eval.winning_probability ~rng ~samples:200_000 Model.py91
          (Model.Single_threshold (Array.make 3 beta))
      in
      Alcotest.(check bool) "agrees" true (Mc.agrees est 0.544631139671));
  ]

(* ------------------------- Mc_eval batch kernel ------------------------- *)

let mc_eval_kernel_tests =
  [
    Alcotest.test_case "kernel path agrees with the closed forms" `Quick (fun () ->
      let inst3 = Model.instance ~n:3 ~delta:1. in
      let est =
        Mc_eval.winning_probability ~rng:(Rng.create ~seed:91) ~samples:150_000 inst3
          (Model.Single_threshold (Array.make 3 0.62))
      in
      Alcotest.(check bool) "threshold" true
        (Mc.agrees est (Threshold.winning_probability_sym ~n:3 ~delta:1. 0.62));
      (* the default path is the kernel's estimate, bit for bit *)
      let spec = Mc_kernel.make ~n:3 ~delta:1. (Mc_kernel.Threshold (Array.make 3 0.62)) in
      let by_kernel =
        Mc.probability ~kernel:spec ~rng:(Rng.create ~seed:91) ~samples:150_000 (fun _ ->
            Alcotest.fail "the kernel never calls the closure")
      in
      Alcotest.(check (float 0.)) "kernel estimate" by_kernel.Mc.mean est.Mc.mean;
      let inst4 = Model.instance ~n:4 ~delta:(4. /. 3.) in
      let est_o =
        Mc_eval.winning_probability ~rng:(Rng.create ~seed:92) ~samples:150_000 inst4
          (Model.Oblivious (Array.make 4 0.5))
      in
      Alcotest.(check bool) "oblivious (559/1296)" true (Mc.agrees est_o (559. /. 1296.)));
    Alcotest.test_case "kernel estimates are worker-count bit-identical" `Quick (fun () ->
      let inst = Model.instance ~n:3 ~delta:1. in
      let rule = Model.Single_threshold (Array.make 3 0.62) in
      let est j =
        Mc_eval.winning_probability ~domains:j ~rng:(Rng.create ~seed:93) ~samples:50_000 inst
          rule
      in
      let e1 = est 1 in
      List.iter
        (fun j ->
          Alcotest.(check (float 0.)) (Printf.sprintf "mean j=%d" j) e1.Mc.mean (est j).Mc.mean)
        [ 2; 4 ]);
    Alcotest.test_case "Custom rules fall back to the closure" `Quick (fun () ->
      (* a Custom rule has no kernel form: its estimate is the closure
         path's, bit for bit at the same seed *)
      let inst = Model.instance ~n:3 ~delta:1. in
      let est rule =
        let e = Mc_eval.winning_probability ~rng:(Rng.create ~seed:94) ~samples:20_000 inst rule in
        let closure =
          Mc.probability ~rng:(Rng.create ~seed:94) ~samples:20_000 (fun rng ->
              (Engine.run_once rng ~delta:1. (Comm_pattern.none ~n:3) (Mc_eval.protocol rule))
                .Engine.win)
        in
        Alcotest.(check (float 0.)) "closure estimate" closure.Mc.mean e.Mc.mean;
        e
      in
      ignore (est (Model.Custom (fun _ x -> x)));
      Alcotest.(check bool) "custom coin agrees with Theorem 4.1" true
        (Mc.agrees
           (est (Model.Custom (fun _ _ -> 0.5)))
           (Oblivious.winning_probability ~delta:1. (Array.make 3 0.5))));
    Alcotest.test_case "banded closure estimate is pinned at every -j" `Quick (fun () ->
      (* the Custom rule of `ddm banded --params 0.3,0.7,0.5 --seed 7`
         plays on the closure; its estimate is a function of (seed,
         samples), so the win count is pinned at every -j *)
      let inst = Model.instance ~n:3 ~delta:1. in
      let rule = Banded.to_rule { Banded.t1 = 0.3; t2 = 0.7; q = 0.5 } in
      List.iter
        (fun j ->
          let e =
            Mc_eval.winning_probability ~domains:j ~rng:(Rng.create ~seed:7) ~samples:50_000 inst
              rule
          in
          Alcotest.(check (float 0.)) (Printf.sprintf "wins j=%d" j) 22_908.
            (Float.round (e.Mc.mean *. 50_000.)))
        [ 1; 2; 4 ]);
  ]

(* ------------------------- float bits ------------------------- *)

(* The float closed forms' exact bits (printed with %h).  The bodies are
   written once over Field, and the float instance must keep their float
   operation order to the last ulp. *)
let float_bits_tests =
  [
    Alcotest.test_case "float closed forms are pinned to the bit" `Quick (fun () ->
      let vec n lo step = Array.init n (fun i -> lo +. (step *. float_of_int i)) in
      let a11 = vec 11 0.15 0.07 in
      List.iter
        (fun (label, bits, value) ->
          Alcotest.(check string) label bits (Printf.sprintf "%h" (value ())))
        [
        ("thm5.1 n=1", "0x1.5555555555553p-2", fun () -> Threshold.winning_probability ~delta:(1. /. 3.) [| 0.3 |]);
        ("thm5.1 n=2", "0x1.9907f6e5d4c3bp-2", fun () -> Threshold.winning_probability ~delta:(2. /. 3.) [| 0.3; 0.8 |]);
        ("thm5.1 n=3", "0x1.ed55555555556p-2", fun () -> Threshold.winning_probability ~delta:1. [| 0.25; 0.75; 0.5 |]);
        ("thm5.1 n=4", "0x1.b642373576e9cp-2", fun () -> Threshold.winning_probability ~delta:(4. /. 3.) [| 0.6; 0.7; 0.65; 0.678 |]);
        ("thm5.1 n=5", "0x1.f8ca8e23dc1fp-2", fun () -> Threshold.winning_probability ~delta:(5. /. 3.) (vec 5 0.1 0.2));
        ("thm5.1 n=6", "0x1.825132812cd61p-2", fun () -> Threshold.winning_probability ~delta:2. (vec 6 0.2 0.1));
        ("thm5.1 n=7", "0x1.17185c1e4f11ep-1", fun () -> Threshold.winning_probability ~delta:(7. /. 3.) (vec 7 0.9 (-0.11)));
        ("thm5.1 n=8", "0x1.c7196788156d1p-2", fun () -> Threshold.winning_probability ~delta:(8. /. 3.) (vec 8 0.35 0.05));
        ("thm5.1 n=9", "0x1.16056fbf3d6aep-1", fun () -> Threshold.winning_probability ~delta:3. (Array.make 9 0.62));
        ("thm5.1 n=10", "0x1.047bfaa3ec03bp-1", fun () -> Threshold.winning_probability ~delta:(10. /. 3.) (vec 10 0.05 0.1));
        ("thm5.1 n=11", "0x1.cab88337a5467p-2", fun () -> Threshold.winning_probability ~delta:(11. /. 3.) a11);
        ("thm5.1 n=11 domains=2", "0x1.cab88337a5467p-2", fun () -> Threshold.winning_probability ~domains:2 ~delta:(11. /. 3.) a11);
        ("thm5.1 caps n=4", "0x1.361c432ca57bcp-2", fun () -> Threshold.winning_probability_caps ~delta0:1.4 ~delta1:0.9 [| 0.5; 0.8; 0.35; 0.6 |]);
        ("thm5.1 caps n=6 domains=2", "0x1.a2c8fdb7afeecp-3", fun () -> Threshold.winning_probability_caps ~domains:2 ~delta0:2.5 ~delta1:1.25 (vec 6 0.3 0.1));
        ("sym n=3", "0x1.16d7bbcc82b3dp-1", fun () -> Threshold.winning_probability_sym ~n:3 ~delta:1. 0.62);
        ("sym n=12", "0x1.17c8c24f64014p-1", fun () -> Threshold.winning_probability_sym ~n:12 ~delta:4. 0.6);
        ("sym n=40", "0x1.86c6e4304e979p-1", fun () -> Threshold.winning_probability_sym ~n:40 ~delta:(40. /. 3.) 0.65);
        ("sym caps n=4", "0x1.b6c19ab13864ep-3", fun () -> Threshold.winning_probability_sym_caps ~n:4 ~delta0:1.5 ~delta1:0.75 0.55);
        ("thm4.1 n=4", "0x1.56a9f21e06c2cp-2", fun () -> Oblivious.winning_probability ~delta:1.2 [| 0.3; 0.8; 0.5; 0.65 |]);
        ("thm4.1 n=8", "0x1.23e965d7fcfc6p-1", fun () -> Oblivious.winning_probability ~delta:(8. /. 3.) (vec 8 0.2 0.09));
        ("thm4.1 n=20", "0x1.8b3121626aad6p-1", fun () -> Oblivious.winning_probability ~delta:(20. /. 3.) (vec 20 0.1 0.04));
        ("thm4.1 n=40", "0x1.c745f22b34525p-1", fun () -> Oblivious.winning_probability ~delta:(40. /. 3.) (Array.make 40 0.5));
        ("thm4.1 caps n=4", "0x1.246232faff0f4p-2", fun () -> Oblivious.winning_probability_caps ~delta0:1.4 ~delta1:0.9 [| 0.3; 0.6; 0.8; 0.5 |]);
        ("thm4.3 uniform n=10", "0x1.2f05628622f2ep-1", fun () -> Oblivious.winning_probability_uniform ~n:10 ~delta:(10. /. 3.));
        ("phi n=6 k=2", "0x1p-1", fun () -> Oblivious.phi ~n:6 ~delta:2. 2);
        ("residual n=4 k=1", "0x1.343cd6d94e738p-7", fun () -> Oblivious.optimality_residual ~delta:1.2 [| 0.3; 0.8; 0.5; 0.65 |] 1);
        ("partition n=5", "0x1.2d79dac6c28bep-1", fun () -> snd (Oblivious.optimal_partition ~n:5 ~delta:(5. /. 3.)));
        ("banded n=4", "0x1.c457b13c459a2p-2", fun () -> Banded.winning_probability ~n:4 ~delta:(4. /. 3.) { Banded.t1 = 0.1; t2 = 0.7; q = 0.75 });
        ("banded n=3", "0x1.d2e3aed836d48p-2", fun () -> Banded.winning_probability ~n:3 ~delta:1. { Banded.t1 = 0.2; t2 = 0.8; q = 0.6 });
        ("cdf", "0x1.e770f70f70f78p-2", fun () -> Uniform_sum.cdf ~widths:[| 0.3; 0.7; 1.; 0.45 |] 1.2);
        ("pdf", "0x1.eaaaaaaaaaab5p-1", fun () -> Uniform_sum.pdf ~widths:[| 0.3; 0.7; 1.; 0.45 |] 1.2);
        ("cdf_shifted", "0x1.e2e3ffb45856p-5", fun () -> Uniform_sum.cdf_shifted ~lowers:[| 0.3; 0.7; 0.; 0.45 |] 2.1);
        ("cdf_equal", "0x1.9bff571e8808ap-1", fun () -> Uniform_sum.cdf_equal ~m:7 ~width:0.6 2.5);
        ("cdf_equal_shifted", "0x1.c82ba32eefc59p-1", fun () -> Uniform_sum.cdf_equal_shifted ~m:5 ~lower:0.35 3.9);
        ("irwin_hall_cdf m=20", "0x1.87ea0331dc745p-7", fun () -> Uniform_sum.irwin_hall_cdf ~m:20 7.1);
        ("irwin_hall_cdf m=50 collapsed", "0x1.52573e405a47fp-1", fun () -> Uniform_sum.irwin_hall_cdf ~m:50 (100. /. 3.));
        ("irwin_hall_pdf m=9", "0x1.b67753e82e629p-2", fun () -> Uniform_sum.irwin_hall_pdf ~m:9 4.2);
        ("sigma_pi_volume m=3", "0x1.6d097b425ed09p-2", fun () -> Geometry.sigma_pi_volume ~sigma:[| 1.; 2.; 1.5 |] ~pi:[| 0.5; 1.; 1. |]);
        ("sigma_pi_volume m=6", "0x1.8e4dfc8db3f2ep-6", fun () -> Geometry.sigma_pi_volume ~sigma:(vec 6 1. 0.3) ~pi:(vec 6 0.4 0.15));
        ]);
  ]

(* Exact optima of the symmetric threshold curve, recorded from the
   schoolbook rational pipeline as [Rat.to_string]: argmax, value and every
   stationary enclosure, for both paper canaries, three request-style deltas
   a/b (b <= 100) at each of n = 3, 4, 5, and one instance each at n = 6, 7
   and 8. However the exact arithmetic is organised, these strings must not
   move. *)
let opt_bits_cases =
  [
    ( 3, "1",
      "1577047418306272191839944453413/2535301200456458802993406410752",
      "532527948168887222479108508203693531728296390914669040929469556977900896\
      13392765241370990113/977777268640553321408853930436501517304704828959649\
      40030534741569010302388640161896803074048",
      [ ("394261854576568047959986113353/633825300114114700748351602688", "788523709153136095919972226707/1267650600228229401496703205376") ] );
    ( 4, "4/3",
      "859464370803202979626582119101/1267650600228229401496703205376",
      "597561768519657028919828431610320498577179879749891687422104872598330893\
      22008288844891040514837407621007785053014468032507/139441493416693063841\
      419635288162641213804112812778069692855605253194971588909424510000849077\
      127442897538771286528364642304",
      [ ("1289196556204804469439873178651/1901475900342344102245054808064", "322299139051201117359968294663/475368975085586025561263702016") ] );
    ( 3, "7/11",
      "11039331928143905342879611173891/27888313205021046832927470518272",
      "182657086221928317310334218313866881382805662083731481038808058043420007\
      37393718477790249608759/130142154456057647079518458141098351953256212734\
      529335180641741028352712479280055484644891557888",
      [ ("2759832982035976335719902793471/6972078301255261708231867629568", "5519665964071952671439805586949/13944156602510523416463735259136") ] );
    ( 3, "89/53",
      "33844546207226981919947452229467/50389111359072118709493952413696",
      "218687479167507891562146104747371449512505789908270399111043697487060929\
      066839683682422673852299/25588221050988220927392060926061627490741266941\
      1959280063150950166261564645355922742955393155072",
      [ ("1410189425301124246664477176227/2099546306628004946228914683904", "16922273103613490959973726114743/25194555679536059354746976206848") ] );
    ( 3, "233/97",
      "26576493430159247265892914145187/30740527055534562986295052730368",
      "173657679724955826460377937588500951557495425540510928740854312227081502\
      429826311264879444403817/17429510021523041435745760610415491197324938874\
      2400409594703582406276054124897231403986234376192",
      [ ("19932370072619435449419685608883/23055395291650922239721289547776", "39864740145238870898839371217795/46110790583301844479442579095552") ] );
    ( 4, "13/7",
      "9365060168031718817523236558209/13310331302396408715715383656448",
      "160295157002917191589561582167308742017602574370881553337303567994215088\
      562441829014131153332401439243887456452071005422455439/18832445195258252\
      603432730618386915712431831711070758174955729836976813381654648463978802\
      1731727932098307206795661964472221696",
      [ ("2341265042007929704380809139551/3327582825599102178928845914112", "1560843361338619802920539426369/2218388550399401452619230609408") ] );
    ( 4, "61/20",
      "42425170614405209378576920204299/50706024009129176059868128215040",
      "396223282981479068076212807404038000991566763226611810990704411091918660\
      3551981173322661187919084155699546361785504628798119849/3966335812741491\
      593711491848196626238970428097785687315707892771646434747417868074951135\
      262638291709085547272150140149825536000",
      [ ("1060629265360130234464423005107/1267650600228229401496703205376", "21212585307202604689288460102159/25353012004564588029934064107520") ] );
    ( 4, "311/99",
      "213948895763529570553728672511133/250994818845189421496347234664448",
      "118981775272311647234759332949625679414554769907022243897022061714974163\
      45902180641135698935076239501223915888166113064300646020973/119063948626\
      236999573993755016412651894259366835150658455519128810981448409217558609\
      51379619564515903011429557168152340197537742848",
      [ ("26743611970441196319216084063881/31374352355648677687043404333056", "3241649935811054099298919280473/3802951800684688204490109616128") ] );
    ( 5, "9/4",
      "1898148570247072097447343617897/2535301200456458802993406410752",
      "346351210312745817264128044487464122068795634637079694220174282440034206\
      121587415509081337333294773892888909515664069109475451312588099453446854\
      2000249609/4189939978107061593616882811939326914837301818935122930538612\
      951163051259397983430250585718177157321153134955683276890891798088378733\
      303108260515314401280",
      [ ("237268571280884012180917952237/316912650057057350374175801344", "949074285123536048723671808949/1267650600228229401496703205376") ] );
    ( 5, "173/41",
      "1810551163180030625171740402421/2030221664428023650834563727360",
      "201899564542463492221778465819880076428302545334823480255965750043911783\
      176966262456911331678728767874915565796236950989002382276552240971866129\
      77146539/201903884245822186059747930213719957274592539281046559392309316\
      163359452897470391505663519914980990659711388596631403353568968975909759\
      77421694566400000",
      [ ("90527558159001531258587020121/101511083221401182541728186368", "905275581590015312585870201211/1015110832214011825417281863680") ] );
    ( 5, "457/100",
      "149010493474864975083586497699623/158456325028528675187087900672000",
      "239750028300793560154936897298861413014939705478699175342238397028230652\
      423666281178762975298239897660053105537180174464909837597165546556337590\
      0613021209807179857/2397502886642682033701066672481151722814923373566697\
      843859832544992285495413579996252395087152761833850747083101240286383704\
      045321693403115230855168000000000000000",
      [ ("7450524673743248754179324884979/7922816251426433759354395033600", "74505246737432487541793248849833/79228162514264337593543950336000") ] );
    ( 6, "2",
      "867189057102926366552034246905/1267650600228229401496703205376",
      "845787097004531699171527455329718000128235683567937963909275973286060438\
      190590410252626870283560840215445029825286061427789615551071828459571782\
      428661414968401206926257386081509795151/14938256047971574650644668309288\
      180143644806436072772839984366386886350121086469327038945376209573659437\
      512391800682841056622543871482391108392749402810269273420254492245434285\
      26735360",
      [ ("1300783585654389549828051370357/1901475900342344102245054808064", "650391792827194774914025685179/950737950171172051122527404032") ] );
    ( 7, "23/10",
      "4129069801912918286314447366407/6338253001141147007483516026880",
      "640588048035967517824404844830998716289962496647037319776676533296950923\
      151128482044358827443064261697459373310427885991203571725624931787866118\
      289506601590104945211593745488298178371935560330550876729563958594558943\
      49/129448656952167004279758735399003166378777893585101544198590506598957\
      080359654723356703512416206278291914033999195010826531337590531867048194\
      161066621511130291866832531676566283622975291684504370348232366935244800\
      000000",
      [ ("6193604702869377429471671049607/9507379501711720511225274040320", "3096802351434688714735835524807/4753689750855860255612637020160") ] );
    ( 8, "8/3",
      "854244070012156196173565364063/1267650600228229401496703205376",
      "562705856854248280053676089236797479906903140659320467294358422856804908\
      761731332647208283354639311500351688965612013675506317058650422826603570\
      773757332354045383475084886287468328748050542136147644195765593987009767\
      9310866362491319706616598201863/9187256965766192017369960595773656205484\
      019464070081422475567975626608146637511644462944500682836217328516260114\
      738253018750049807062202401375435602461940945810369064630204398796013893\
      112156481411815288882185919076393329553515443131578501887426560",
      [ ("640683052509117147130174023047/950737950171172051122527404032", "1281366105018234294260348046095/1901475900342344102245054808064") ] );
  ]

let opt_bits_tests =
  [
    Alcotest.test_case "exact optima are pinned to the bit" `Quick (fun () ->
      List.iter
        (fun (n, delta, argmax, value, stationaries) ->
          let res = Symbolic.optimal_sym_threshold ~n ~delta:(R.of_string delta) () in
          let name = Printf.sprintf "n=%d delta=%s" n delta in
          Alcotest.(check string) (name ^ " argmax") argmax (R.to_string res.Piecewise.argmax);
          Alcotest.(check string) (name ^ " value") value (R.to_string res.Piecewise.value);
          Alcotest.(check (list (pair string string)))
            (name ^ " stationary enclosures") stationaries
            (List.map
               (fun (s : Piecewise.stationary) ->
                 (R.to_string s.Piecewise.location.Roots.lo, R.to_string s.Piecewise.location.Roots.hi))
               res.Piecewise.stationaries))
        opt_bits_cases);
    Alcotest.test_case "caps curve pieces are pinned" `Quick (fun () ->
      let curve = Symbolic.sym_threshold_curve_caps ~n:4 ~delta0:(R.of_ints 3 2) ~delta1:(R.of_ints 3 4) in
      Alcotest.(check (list (triple string string string)))
        "n=4 delta0=3/2 delta1=3/4"
        [
          ("0", "3/16", "5/3*b^4 - 1/2*b^3 + 9/16*b^2 + 27/2048");
          ("3/16", "1/4", "-9*b^4 + 15/2*b^3 - 27/16*b^2 + 9/32*b");
          ("1/4", "3/8", "9*b^4 - 6*b^3 + 27/16*b^2");
          ("3/8", "1/2", "-41/3*b^4 + 19*b^3 - 9*b^2 + 9/4*b - 27/128");
          ("1/2", "3/4", "107/6*b^4 - 97/2*b^3 + 45*b^2 - 135/8*b + 297/128");
          ("3/4", "1", "-1/6*b^4 + b^3 - 9/4*b^2 + 9/4*b - 81/128");
        ]
        (List.map
           (fun (p : Piecewise.piece) ->
             (R.to_string p.Piecewise.lo, R.to_string p.Piecewise.hi, P.to_string ~var:"b" p.Piecewise.poly))
           (Piecewise.pieces curve)));
    Alcotest.test_case "certified optima are pinned" `Quick (fun () ->
      List.iter
        (fun (n, delta, arg, piece, value_lo, value_hi) ->
          let c = Symbolic.optimal_sym_threshold_certified ~n ~delta:(R.of_string delta) () in
          let name = Printf.sprintf "n=%d delta=%s" n delta in
          Alcotest.(check string) (name ^ " arg") arg (Format.asprintf "%a" Alg.pp c.Piecewise.arg);
          Alcotest.(check string) (name ^ " piece") piece (P.to_string ~var:"b" c.Piecewise.arg_piece);
          Alcotest.(check string) (name ^ " value lo") value_lo (R.to_string c.Piecewise.value_enclosure.Interval.lo);
          Alcotest.(check string) (name ^ " value hi") value_hi (R.to_string c.Piecewise.value_enclosure.Interval.hi))
        [
          ( 3, "1",
            "root of 21/2*x^2 - 21*x + 9 in [12616379346450177534719555627309/2028240\
            9603651670423947251286016, 50465517385800710138878222509237/811296384146\
            06681695789005144064]",
            "7/2*b^3 - 21/2*b^2 + 9*b - 11/6",
            "109061723784988103163721422480103656825401140605147080963455229446165988\
            835909960049914634461313/20024878461758532022453328495339551074400354897\
            0936197182535150733333099291935051564652695650304",
            "436246895139952412654885689920516855082036244454005432805022425465035685\
            868200617281464583750441/80099513847034128089813313981358204297601419588\
            3744788730140602933332397167740206258610782601216" );
          ( 4, "4/3",
            "root of -26/3*x^3 + 98/3*x^2 - 368/9*x + 416/27 in [20627144899276871511\
            037970858425/30423614405477505635920876929024, 8250857959710748604415188\
            3433701/121694457621910022543683507716096]",
            "-13/6*b^4 + 98/9*b^3 - 184/9*b^2 + 416/27*b - 32/9",
            "117485424185112729141869628282018899591802388864296964880677391139823573\
            85228738609752029212099679871454509381765525693920873689/274153131376691\
            898957338316547350805637635990118946707261729548376201569741523041340622\
            46935355872293199302745101768715594104832",
            "352456272555338187425608884846194656730165924194309334642079004191215447\
            45754545691661723726960709902090585218469817323068827275/822459394130075\
            696872014949642052416912907970356840121785188645128604709224569124021867\
            40806067616879597908235305306146782314496" );
        ]);
  ]

let () =
  Alcotest.run "core"
    [
      ("model", model_tests);
      ("oblivious", oblivious_tests);
      ("oblivious-prop", oblivious_props);
      ("threshold", threshold_tests);
      ("threshold-prop", threshold_props);
      ("symbolic", symbolic_tests);
      ("caps", caps_tests);
      ("banded", banded_tests);
      ("certified", certified_tests);
      ("tradeoff", tradeoff_tests);
      ("mc-eval-kernel", mc_eval_kernel_tests);
      ("float-bits", float_bits_tests);
      ("opt-bits", opt_bits_tests);
    ]
