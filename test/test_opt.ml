(* Tests for the numeric optimizers. *)

let unit_tests =
  [
    Alcotest.test_case "grid_max finds the best grid point" `Quick (fun () ->
      let f x = -.((x -. 0.3) ** 2.) in
      let x, v = Opt.grid_max ~f ~lo:0. ~hi:1. ~points:11 in
      Alcotest.(check (float 1e-12)) "argmax" 0.3 x;
      Alcotest.(check (float 1e-12)) "value" 0. v);
    Alcotest.test_case "golden section on a parabola" `Quick (fun () ->
      let f x = 1. -. ((x -. (1. -. sqrt (1. /. 7.))) ** 2.) in
      let x, v = Opt.golden_section ~f ~lo:0.5 ~hi:1. () in
      (* x-accuracy near a smooth max is limited to ~sqrt(machine eps) *)
      Alcotest.(check (float 1e-6)) "argmax" (1. -. sqrt (1. /. 7.)) x;
      Alcotest.(check (float 1e-12)) "value" 1. v);
    Alcotest.test_case "grid_then_golden handles multimodality" `Quick (fun () ->
      (* two humps; global max at 0.8 *)
      let f x = (0.6 *. exp (-200. *. ((x -. 0.2) ** 2.))) +. exp (-200. *. ((x -. 0.8) ** 2.)) in
      let x, _ = Opt.grid_then_golden ~f ~lo:0. ~hi:1. ~points:101 () in
      Alcotest.(check (float 1e-6)) "argmax" 0.8 x);
    Alcotest.test_case "golden max at boundary" `Quick (fun () ->
      let f x = x in
      let x, _ = Opt.golden_section ~f ~lo:0. ~hi:1. () in
      Alcotest.(check (float 1e-9)) "right end" 1. x);
    Alcotest.test_case "nelder_mead on 3D concave quadratic" `Quick (fun () ->
      let target = [| 0.2; -0.4; 0.7 |] in
      let f x =
        let acc = ref 0. in
        Array.iteri (fun i v -> acc := !acc +. ((v -. target.(i)) ** 2.)) x;
        -. !acc
      in
      let x, v = Opt.nelder_mead ~f ~x0:[| 0.; 0.; 0. |] () in
      Array.iteri
        (fun i t -> Alcotest.(check (float 1e-4)) (Printf.sprintf "x%d" i) t x.(i))
        target;
      Alcotest.(check (float 1e-7)) "value" 0. v);
    Alcotest.test_case "nelder_mead on rosenbrock-like ridge" `Quick (fun () ->
      let f x =
        let a = x.(0) and b = x.(1) in
        -.(((1. -. a) ** 2.) +. (20. *. ((b -. (a *. a)) ** 2.)))
      in
      let x, v = Opt.nelder_mead ~f ~x0:[| -0.5; 0.5 |] ~max_iter:20000 ~tol:1e-14 () in
      Alcotest.(check (float 1e-3)) "x" 1. x.(0);
      Alcotest.(check (float 1e-3)) "y" 1. x.(1);
      Alcotest.(check bool) "value near 0" true (v > -1e-5));
    Alcotest.test_case "coordinate_ascent on separable function" `Quick (fun () ->
      let f x = -.((x.(0) -. 0.25) ** 2.) -. ((x.(1) -. 0.75) ** 2.) in
      let x, v =
        Opt.coordinate_ascent ~f ~x0:[| 0.9; 0.1 |] ~bounds:[| (0., 1.); (0., 1.) |] ()
      in
      Alcotest.(check (float 1e-6)) "x0" 0.25 x.(0);
      Alcotest.(check (float 1e-6)) "x1" 0.75 x.(1);
      Alcotest.(check (float 1e-9)) "value" 0. v);
    Alcotest.test_case "coordinate_ascent respects bounds" `Quick (fun () ->
      let f x = x.(0) +. x.(1) in
      let x, _ =
        Opt.coordinate_ascent ~f ~x0:[| 0.5; 0.5 |] ~bounds:[| (0., 0.7); (0., 0.9) |] ()
      in
      Alcotest.(check (float 1e-9)) "clamped x0" 0.7 x.(0);
      Alcotest.(check (float 1e-9)) "clamped x1" 0.9 x.(1));
  ]

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let property_tests =
  [
    qtest "golden section beats grid on random parabolas"
      (QCheck.pair (QCheck.float_range 0.05 0.95) (QCheck.float_range 0.5 10.))
      (fun (c, k) ->
        let f x = -.(k *. ((x -. c) ** 2.)) in
        let x, _ = Opt.golden_section ~f ~lo:0. ~hi:1. () in
        abs_float (x -. c) < 1e-6);
    qtest "nelder_mead improves on the start"
      (QCheck.pair (QCheck.float_range (-0.5) 0.5) (QCheck.float_range (-0.5) 0.5))
      (fun (a, b) ->
        let f x = -.((x.(0) -. a) ** 2.) -. (3. *. ((x.(1) -. b) ** 2.)) in
        let x0 = [| 0.9; -0.9 |] in
        let _, v = Opt.nelder_mead ~f ~x0 () in
        v >= f x0 -. 1e-12);
  ]

let () = Alcotest.run "opt" [ ("unit", unit_tests); ("property", property_tests) ]
