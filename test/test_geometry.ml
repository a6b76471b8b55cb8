(* Tests for the polytope-volume machinery (paper Section 2.1). *)

module G = Geometry
module R = Rat

let rat = Alcotest.testable R.pp R.equal

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let gen_side = QCheck.Gen.(map (fun k -> R.of_ints k 10) (int_range 1 30))

let gen_sides dim = QCheck.Gen.(list_repeat dim gen_side)

let arb_sigma_pi =
  QCheck.make
    ~print:(fun (s, p) ->
      Printf.sprintf "sigma=[%s] pi=[%s]"
        (String.concat ";" (List.map R.to_string s))
        (String.concat ";" (List.map R.to_string p)))
    QCheck.Gen.(
      let* dim = int_range 1 6 in
      let* s = gen_sides dim in
      let* p = gen_sides dim in
      return (s, p))

let unit_tests =
  [
    Alcotest.test_case "Lemma 2.1: simplex and box volumes" `Quick (fun () ->
      Alcotest.check rat "unit simplex dim 3" (R.of_ints 1 6)
        (G.Q.simplex_volume [| R.one; R.one; R.one |]);
      Alcotest.check rat "scaled simplex" (R.of_ints 1 1)
        (G.Q.simplex_volume [| R.of_int 2; R.of_int 3; R.one |]);
      Alcotest.check rat "box" (R.of_ints 3 4)
        (G.Q.box_volume [| R.half; R.of_ints 3 2; R.one |]));
    Alcotest.test_case "Prop 2.2 dim 1" `Quick (fun () ->
      (* [0, pi] cap [0, sigma]: length min(pi, sigma) *)
      Alcotest.check rat "pi < sigma" R.half
        (G.Q.sigma_pi_volume ~sigma:[| R.one |] ~pi:[| R.half |]);
      Alcotest.check rat "pi > sigma" R.one
        (G.Q.sigma_pi_volume ~sigma:[| R.one |] ~pi:[| R.of_int 3 |]));
    Alcotest.test_case "Prop 2.2 dim 2 analytic" `Quick (fun () ->
      (* Unit square vs simplex x + y <= 3/2: area = 1 - (1/2)(1/2)^2 * 2 = 7/8 *)
      let v = G.Q.sigma_pi_volume ~sigma:[| R.of_ints 3 2; R.of_ints 3 2 |] ~pi:[| R.one; R.one |] in
      Alcotest.check rat "clipped corner" (R.of_ints 7 8) v);
    Alcotest.test_case "box inside simplex" `Quick (fun () ->
      (* sum pi/sigma <= 1: the whole box survives *)
      let sigma = [| R.of_int 10; R.of_int 10; R.of_int 10 |] in
      let pi = [| R.one; R.one; R.one |] in
      Alcotest.check rat "volume = box" (G.Q.box_volume pi) (G.Q.sigma_pi_volume ~sigma ~pi));
    Alcotest.test_case "simplex inside box" `Quick (fun () ->
      (* sigma_l <= pi_l for all l: the whole simplex survives *)
      let sigma = [| R.half; R.half |] in
      let pi = [| R.one; R.one |] in
      Alcotest.check rat "volume = simplex" (G.Q.simplex_volume sigma)
        (G.Q.sigma_pi_volume ~sigma ~pi));
    Alcotest.test_case "Irwin-Hall connection" `Quick (fun () ->
      (* Vol({x in [0,1]^m : sum x <= t}) = IH cdf * 1 *)
      let t = R.of_ints 3 2 and m = 3 in
      let sigma = Array.make m t and pi = Array.make m R.one in
      Alcotest.check rat "matches Cor 2.6" (Uniform_sum.Q.irwin_hall_cdf ~m t)
        (G.Q.sigma_pi_volume ~sigma ~pi));
    Alcotest.test_case "invalid inputs" `Quick (fun () ->
      (try
         ignore (G.Q.sigma_pi_volume ~sigma:[| R.one |] ~pi:[| R.one; R.one |]);
         Alcotest.fail "accepted dimension mismatch"
       with Invalid_argument _ -> ());
      try
        ignore (G.Q.simplex_volume [| R.zero |]);
        Alcotest.fail "accepted zero side"
      with Invalid_argument _ -> ());
    Alcotest.test_case "halfspace representation agrees with membership" `Quick (fun () ->
      let sigma = [| 1.5; 2.0; 1.0 |] and pi = [| 1.0; 0.8; 0.9 |] in
      let hs = G.halfspaces_of_sigma_pi ~sigma ~pi in
      let rng = Rng.create ~seed:5 in
      for _ = 1 to 2000 do
        let x = Array.init 3 (fun _ -> Rng.uniform rng (-0.2) 1.2) in
        Alcotest.(check bool) "same" (G.mem_sigma_pi ~sigma ~pi x) (G.mem_halfspaces hs x)
      done);
    Alcotest.test_case "MC volume cross-check (P1)" `Quick (fun () ->
      let sigma = [| 1.5; 2.0; 1.0; 1.2 |] and pi = [| 1.0; 0.8; 0.9; 0.7 |] in
      let exact = G.sigma_pi_volume ~sigma ~pi in
      let rng = Rng.create ~seed:77 in
      let mc =
        G.mc_volume ~rand:(fun () -> Rng.float01 rng) ~samples:200000 ~box:pi
          (G.mem_sigma_pi ~sigma ~pi)
      in
      Alcotest.(check bool) "within 3 sigma-ish" true (abs_float (mc -. exact) < 0.01));
  ]

let property_tests =
  [
    qtest "volume bounds: 0 <= vol <= min(simplex, box)" arb_sigma_pi (fun (s, p) ->
      let sigma = Array.of_list s and pi = Array.of_list p in
      let v = G.Q.sigma_pi_volume ~sigma ~pi in
      R.sign v >= 0
      && R.compare v (G.Q.box_volume pi) <= 0
      && R.compare v (G.Q.simplex_volume sigma) <= 0);
    qtest "exact vs float evaluation" arb_sigma_pi (fun (s, p) ->
      let sigma = Array.of_list s and pi = Array.of_list p in
      let exact = R.to_float (G.Q.sigma_pi_volume ~sigma ~pi) in
      let fl =
        G.sigma_pi_volume ~sigma:(Array.map R.to_float sigma) ~pi:(Array.map R.to_float pi)
      in
      abs_float (exact -. fl) <= 1e-9 *. (1. +. abs_float exact));
    qtest "monotone in box sides" arb_sigma_pi (fun (s, p) ->
      let sigma = Array.of_list s and pi = Array.of_list p in
      let bigger = Array.map (fun v -> R.mul_int v 2) pi in
      R.compare (G.Q.sigma_pi_volume ~sigma ~pi) (G.Q.sigma_pi_volume ~sigma ~pi:bigger) <= 0);
    qtest "monotone in simplex sides" arb_sigma_pi (fun (s, p) ->
      let sigma = Array.of_list s and pi = Array.of_list p in
      let bigger = Array.map (fun v -> R.mul_int v 2) sigma in
      R.compare (G.Q.sigma_pi_volume ~sigma ~pi) (G.Q.sigma_pi_volume ~sigma:bigger ~pi) <= 0);
    qtest "permutation invariance" arb_sigma_pi (fun (s, p) ->
      let sigma = Array.of_list s and pi = Array.of_list p in
      let rev a = Array.of_list (List.rev (Array.to_list a)) in
      R.equal (G.Q.sigma_pi_volume ~sigma ~pi) (G.Q.sigma_pi_volume ~sigma:(rev sigma) ~pi:(rev pi)));
    qtest "saturation: huge simplex leaves the box" arb_sigma_pi (fun (s, p) ->
      let sigma = Array.map (fun v -> R.mul_int v 1000) (Array.of_list s) in
      let pi = Array.of_list p in
      R.equal (G.Q.box_volume pi) (G.Q.sigma_pi_volume ~sigma ~pi));
  ]

let () = Alcotest.run "geometry" [ ("unit", unit_tests); ("property", property_tests) ]
