(* Cross-module integration tests: each experiment id from DESIGN.md gets an
   end-to-end assertion tying together the symbolic pipeline, the numeric
   evaluators, the Monte-Carlo engine and the distributed simulator. *)

module R = Rat

let rat = Alcotest.testable R.pp R.equal

(* F1/F2: the figure curves for n = 3, 4, 5 exist, are continuous, and the
   three evaluation routes (symbolic, O(n^2) collapse, O(3^n) general) agree
   pointwise. *)
let figure_tests =
  [
    Alcotest.test_case "F1: three routes agree along the curves" `Quick (fun () ->
      List.iter
        (fun n ->
          let delta_r = R.one and delta = 1. in
          let curve = Symbolic.sym_threshold_curve ~n ~delta:delta_r in
          for i = 0 to 20 do
            let beta = float_of_int i /. 20. in
            let via_symbolic = Piecewise.eval_float curve beta in
            let via_sym = Threshold.winning_probability_sym ~n ~delta beta in
            let via_gen = Threshold.winning_probability ~delta (Array.make n beta) in
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "n=%d beta=%.2f sym" n beta)
              via_sym via_symbolic;
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "n=%d beta=%.2f gen" n beta)
              via_gen via_sym
          done)
        [ 3; 4; 5 ]);
    Alcotest.test_case "F1: curve shape sanity" `Quick (fun () ->
      (* At delta = 1 the curves must dominate their endpoints in the middle
         and decrease with n. *)
      let p n beta = Threshold.winning_probability_sym ~n ~delta:1. beta in
      List.iter
        (fun n ->
          Alcotest.(check bool) (Printf.sprintf "interior beats endpoints n=%d" n) true
            (p n 0.6 > p n 0. && p n 0.6 > p n 1.))
        [ 3; 4; 5 ];
      Alcotest.(check bool) "monotone in n" true (p 3 0.6 > p 4 0.6 && p 4 0.6 > p 5 0.6));
    Alcotest.test_case "F2: scaled-capacity curves keep an interior optimum" `Quick (fun () ->
      List.iter
        (fun n ->
          let delta = R.of_ints n 3 in
          let res = Symbolic.optimal_sym_threshold ~n ~delta () in
          let b = R.to_float res.Piecewise.argmax in
          Alcotest.(check bool) (Printf.sprintf "interior n=%d" n) true (b > 0.5 && b < 1.))
        [ 3; 4; 5 ]);
  ]

(* T1/T2: the Section 5.2 case resolutions, cross-validated by distributed
   simulation. *)
let headline_tests =
  [
    Alcotest.test_case "T1 full pipeline" `Quick (fun () ->
      let res = Symbolic.optimal_sym_threshold ~n:3 ~delta:R.one () in
      let beta_star = R.to_float res.Piecewise.argmax in
      Alcotest.(check (float 1e-12)) "beta*" (1. -. sqrt (1. /. 7.)) beta_star;
      (* simulate the optimal protocol as an actual distributed execution *)
      let rng = Rng.create ~seed:20240706 in
      let est =
        Engine.win_probability_mc ~rng ~samples:400_000 ~delta:1. (Comm_pattern.none ~n:3)
          (Dist_protocol.common_threshold ~n:3 beta_star)
      in
      Alcotest.(check bool) "simulation confirms P*" true
        (Mc.agrees est (R.to_float res.Piecewise.value)));
    Alcotest.test_case "T2 full pipeline" `Quick (fun () ->
      let res = Symbolic.optimal_sym_threshold ~n:4 ~delta:(R.of_ints 4 3) () in
      Alcotest.(check (float 5e-4)) "paper's 0.678" 0.678 (R.to_float res.Piecewise.argmax);
      let rng = Rng.create ~seed:42 in
      let est =
        Engine.win_probability_mc ~rng ~samples:400_000 ~delta:(4. /. 3.)
          (Comm_pattern.none ~n:4)
          (Dist_protocol.common_threshold ~n:4 (R.to_float res.Piecewise.argmax))
      in
      Alcotest.(check bool) "simulation confirms P*" true
        (Mc.agrees est (R.to_float res.Piecewise.value)));
  ]

(* T3: oblivious uniformity across n. *)
let t3_tests =
  [
    Alcotest.test_case "T3: alpha = 1/2 for every n (uniformity)" `Quick (fun () ->
      for n = 2 to 10 do
        let delta = R.of_ints n 3 in
        let sp = Oblivious.symmetric_poly ~n ~delta in
        let stationary = Roots.root_floats (Poly.derivative sp) ~lo:R.zero ~hi:R.one in
        let interior = List.filter (fun r -> r > 1e-9 && r < 1. -. 1e-9) stationary in
        Alcotest.(check (list (float 1e-9))) (Printf.sprintf "n=%d" n) [ 0.5 ] interior
      done);
    Alcotest.test_case "T3: exact uniform winning probabilities are rational" `Quick (fun () ->
      (* pin a few exact values as regression anchors *)
      Alcotest.check rat "n=2 delta=1" (R.of_ints 3 4)
        (Oblivious.Q.winning_probability_uniform ~n:2 ~delta:R.one);
      Alcotest.check rat "n=3 delta=1" (R.of_ints 5 12)
        (Oblivious.Q.winning_probability_uniform ~n:3 ~delta:R.one);
      Alcotest.check rat "n=4 delta=4/3" (R.of_ints 559 1296)
        (Oblivious.Q.winning_probability_uniform ~n:4 ~delta:(R.of_ints 4 3)));
  ]

(* T4 and the n=4 inversion. *)
let t4_tests =
  [
    Alcotest.test_case "T4 table rows" `Quick (fun () ->
      let row n delta =
        let obl = R.to_float (Oblivious.Q.winning_probability_uniform ~n ~delta) in
        let thr = R.to_float (Symbolic.optimal_sym_threshold ~n ~delta ()).Piecewise.value in
        (obl, thr)
      in
      let obl3, thr3 = row 3 R.one in
      Alcotest.(check bool) "n=3 improvement" true (thr3 > obl3);
      Alcotest.(check (float 1e-9)) "n=3 gap" 0.127964473
        (thr3 -. obl3);
      let obl4, thr4 = row 4 (R.of_ints 4 3) in
      Alcotest.(check bool) "n=4 inversion" true (thr4 < obl4));
  ]

(* L1/P1: the probabilistic and geometric lemmas, end to end. *)
let lemma_tests =
  [
    Alcotest.test_case "L1: Lemma 2.4/2.7 against simulation" `Quick (fun () ->
      let rng = Rng.create ~seed:5150 in
      let widths = [| 0.25; 0.5; 0.75; 1. |] in
      let t = 1.1 in
      let exact = Uniform_sum.cdf ~widths t in
      let est =
        Mc.probability ~rng ~samples:200_000 (fun rng ->
          Array.fold_left (fun acc w -> acc +. (Rng.float01 rng *. w)) 0. widths <= t)
      in
      Alcotest.(check bool) "cdf" true (Mc.agrees est exact);
      let lowers = [| 0.1; 0.4; 0.7 |] in
      let t = 1.9 in
      let exact = Uniform_sum.cdf_shifted ~lowers t in
      let est =
        Mc.probability ~rng ~samples:200_000 (fun rng ->
          Array.fold_left (fun acc l -> acc +. Rng.uniform rng l 1.) 0. lowers <= t)
      in
      Alcotest.(check bool) "shifted cdf" true (Mc.agrees est exact));
    Alcotest.test_case "P1: Prop 2.2 against hit-or-miss volume" `Quick (fun () ->
      let rng = Rng.create ~seed:161 in
      List.iter
        (fun (sigma, pi) ->
          let exact = Geometry.sigma_pi_volume ~sigma ~pi in
          let mc =
            Geometry.mc_volume
              ~rand:(fun () -> Rng.float01 rng)
              ~samples:150_000 ~box:pi
              (Geometry.mem_sigma_pi ~sigma ~pi)
          in
          Alcotest.(check bool) "close" true (abs_float (mc -. exact) < 0.012))
        [
          ([| 1.0; 1.0 |], [| 1.0; 1.0 |]);
          ([| 1.5; 2.0; 1.0 |], [| 1.0; 0.8; 0.9 |]);
          ([| 2.0; 2.0; 2.0; 2.0 |], [| 1.0; 1.0; 1.0; 1.0 |]);
        ]);
    Alcotest.test_case "Theorem 5.1 inner laws match the geometry view" `Quick (fun () ->
      (* P(sum of U[0, a_i] <= delta) is a volume ratio of a Sigma-Pi
         polytope: check the two modules against each other. *)
      let a = [| R.of_ints 3 10; R.of_ints 7 10; R.of_ints 1 2 |] in
      let delta = R.of_ints 11 10 in
      let sigma = Array.map (fun _ -> delta) a in
      let ratio = R.div (Geometry.Q.sigma_pi_volume ~sigma ~pi:a) (Geometry.Q.box_volume a) in
      Alcotest.check rat "cdf = volume ratio" (Uniform_sum.Q.cdf ~widths:a delta) ratio);
  ]

(* X1: the communication trade-off, qualitatively. *)
let x1_tests =
  [
    Alcotest.test_case "X1: no-comm < broadcast (optimized families)" `Quick (fun () ->
      let n = 3 and delta = 1. in
      let none = Comm_pattern.none ~n in
      let bcast = Comm_pattern.broadcast ~n ~source:0 in
      let family_none p = Dist_protocol.common_threshold ~n p.(0) in
      let _, p_none =
        Engine.optimize_family ~points:48 ~delta none ~family:family_none ~x0:[| 0.6 |]
          ~bounds:[| (0., 1.) |] ()
      in
      let family_bcast p =
        (* listener i weighs its own input by p.(1) and the broadcast by 1 *)
        Dist_protocol.weighted_threshold
          ~weights:[| [| 1.; 0.; 0. |]; [| 1.; p.(1); 0. |]; [| 1.; 0.; p.(1) |] |]
          ~thresholds:[| p.(0); p.(2); p.(2) |]
      in
      let _, p_bcast =
        Engine.optimize_family ~points:48 ~delta bcast ~family:family_bcast
          ~x0:[| 0.9; 0.9; 0.6 |]
          ~bounds:[| (0., 1.); (-1., 1.); (0., 2.) |]
          ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "%.4f < %.4f" p_none p_bcast)
        true (p_none < p_bcast));
  ]

(* X3: randomized symmetric rules at the n=4 inversion. *)
let x3_tests =
  [
    Alcotest.test_case "X3: banded randomized rule beats the fair coin at n=4" `Quick
      (fun () ->
        (* At (n=4, delta=4/3) the best deterministic common threshold loses
           to the fair coin (the T4 inversion), but a banded randomized rule
           found by Engine.optimize_family wins: ~0.4461 vs 0.43133. Pinned
           with a fixed seed and a 5-sigma margin. *)
        let n = 4 and delta = 4. /. 3. in
        let banded =
          Dist_protocol.make ~name:"banded" (fun v ->
            if v.Dist_protocol.own <= 0.0585 then 1.
            else if v.Dist_protocol.own <= 0.728 then 0.7902
            else 0.)
        in
        let rng = Rng.create ~seed:808 in
        let est =
          Engine.win_probability_mc ~rng ~samples:400_000 ~delta (Comm_pattern.none ~n) banded
        in
        let coin = Oblivious.winning_probability_uniform ~n ~delta in
        Alcotest.(check bool)
          (Printf.sprintf "%.5f > %.5f by 5 sigma" est.Mc.mean coin)
          true
          (est.Mc.mean -. coin > 5. *. est.Mc.stderr));
  ]

(* X2: float-vs-exact ablation. *)
let x2_tests =
  [
    Alcotest.test_case "X2: float evaluation stays sane only because of clamping" `Quick
      (fun () ->
        (* The Irwin-Hall inclusion-exclusion loses ~n log n bits; verify the
           exact evaluator keeps certifying values where naive float terms
           blow up, by comparing exact vs float at moderate n and checking
           the exact one against the symmetric-collapse identity. *)
        let n = 25 in
        let delta = R.of_ints n 3 in
        let exact = Oblivious.Q.winning_probability_uniform ~n ~delta in
        let fl = Oblivious.winning_probability_uniform ~n ~delta:(R.to_float delta) in
        Alcotest.(check bool) "exact in [0,1]" true
          (R.sign exact >= 0 && R.compare exact R.one <= 0);
        (* float agrees to a few digits at n=25 but the agreement degrades;
           record the bound we rely on *)
        Alcotest.(check bool) "float still within 1e-6 at n=25" true
          (abs_float (fl -. R.to_float exact) < 1e-6));
  ]

let () =
  Alcotest.run "integration"
    [
      ("figures", figure_tests);
      ("headline", headline_tests);
      ("t3", t3_tests);
      ("t4", t4_tests);
      ("lemmas", lemma_tests);
      ("x1", x1_tests);
      ("x2", x2_tests);
      ("x3", x3_tests);
    ]
