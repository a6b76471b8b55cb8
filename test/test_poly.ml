(* Tests for polynomials, root isolation and piecewise polynomials. *)

module P = Poly
module R = Rat

let poly = Alcotest.testable P.pp P.equal
let rat = Alcotest.testable R.pp R.equal

let gen_rat_small =
  QCheck.Gen.(
    let* num = int_range (-20) 20 in
    let* den = int_range 1 10 in
    return (R.of_ints num den))

let gen_poly =
  QCheck.Gen.(
    let* deg = int_range 0 6 in
    let* coeffs = list_repeat (deg + 1) gen_rat_small in
    return (P.of_list coeffs))

let arb_poly = QCheck.make ~print:P.to_string gen_poly
let arb_rat_small = QCheck.make ~print:R.to_string gen_rat_small

let qtest ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------- Poly ------------------------- *)

let poly_unit =
  [
    Alcotest.test_case "degree and trimming" `Quick (fun () ->
      Alcotest.(check int) "zero" (-1) (P.degree P.zero);
      Alcotest.(check int) "constant" 0 (P.degree P.one);
      Alcotest.(check int) "trim" 1 (P.degree (P.of_int_list [ 1; 2; 0; 0 ]));
      Alcotest.check poly "sub to zero" P.zero (P.sub P.x P.x));
    Alcotest.test_case "to_string" `Quick (fun () ->
      Alcotest.(check string) "poly" "7/2*x^3 - 21/2*x^2 + 9*x - 11/6"
        (P.to_string (P.of_string_list [ "-11/6"; "9"; "-21/2"; "7/2" ]));
      Alcotest.(check string) "zero" "0" (P.to_string P.zero);
      Alcotest.(check string) "monic" "x^2 - 2" (P.to_string (P.of_int_list [ -2; 0; 1 ])));
    Alcotest.test_case "divmod exact" `Quick (fun () ->
      (* (x^2 - 1) = (x - 1)(x + 1) *)
      let p = P.of_int_list [ -1; 0; 1 ] in
      let d = P.of_int_list [ -1; 1 ] in
      let q, r = P.divmod p d in
      Alcotest.check poly "quotient" (P.of_int_list [ 1; 1 ]) q;
      Alcotest.check poly "remainder" P.zero r);
    Alcotest.test_case "gcd of products" `Quick (fun () ->
      let a = P.of_int_list [ -1; 1 ] in
      let b = P.of_int_list [ 2; 1 ] in
      let c = P.of_int_list [ 5; 3 ] in
      let g = P.gcd (P.mul a b) (P.mul a c) in
      (* gcd is monic: a is already monic *)
      Alcotest.check poly "common factor" a g);
    Alcotest.test_case "derivative and antiderivative" `Quick (fun () ->
      let p = P.of_string_list [ "1/6"; "0"; "3/2"; "-1/2" ] in
      Alcotest.check poly "derivative" (P.of_string_list [ "0"; "3"; "-3/2" ]) (P.derivative p);
      Alcotest.check poly "roundtrip" (P.sub p (P.constant (R.of_string "1/6")))
        (P.antiderivative (P.derivative p)));
    Alcotest.test_case "compose" `Quick (fun () ->
      (* (x+1)^2 = x^2 + 2x + 1 *)
      let sq = P.of_int_list [ 0; 0; 1 ] in
      let xp1 = P.of_int_list [ 1; 1 ] in
      Alcotest.check poly "square shift" (P.of_int_list [ 1; 2; 1 ]) (P.compose sq xp1);
      Alcotest.check poly "linear compose" (P.compose sq xp1)
        (P.compose_linear sq R.one R.one));
    Alcotest.test_case "eval exactness" `Quick (fun () ->
      let p = P.of_string_list [ "-11/6"; "9"; "-21/2"; "7/2" ] in
      Alcotest.check rat "at 1/2" (R.of_string "23/48") (P.eval p R.half));
  ]

let poly_props =
  [
    qtest "ring: mul commutative" (QCheck.pair arb_poly arb_poly) (fun (p, q) ->
      P.equal (P.mul p q) (P.mul q p));
    qtest "ring: mul associative" (QCheck.triple arb_poly arb_poly arb_poly) (fun (p, q, r) ->
      P.equal (P.mul (P.mul p q) r) (P.mul p (P.mul q r)));
    qtest "ring: distributive" (QCheck.triple arb_poly arb_poly arb_poly) (fun (p, q, r) ->
      P.equal (P.mul p (P.add q r)) (P.add (P.mul p q) (P.mul p r)));
    qtest "degree of product" (QCheck.pair arb_poly arb_poly) (fun (p, q) ->
      QCheck.assume (not (P.is_zero p) && not (P.is_zero q));
      P.degree (P.mul p q) = P.degree p + P.degree q);
    qtest "divmod invariant" (QCheck.pair arb_poly arb_poly) (fun (p, d) ->
      QCheck.assume (not (P.is_zero d));
      let q, r = P.divmod p d in
      P.equal p (P.add (P.mul q d) r) && P.degree r < P.degree d);
    qtest "eval is a ring homomorphism"
      (QCheck.triple arb_poly arb_poly arb_rat_small)
      (fun (p, q, v) ->
        R.equal (P.eval (P.mul p q) v) (R.mul (P.eval p v) (P.eval q v))
        && R.equal (P.eval (P.add p q) v) (R.add (P.eval p v) (P.eval q v)));
    qtest "product rule" (QCheck.pair arb_poly arb_poly) (fun (p, q) ->
      P.equal
        (P.derivative (P.mul p q))
        (P.add (P.mul (P.derivative p) q) (P.mul p (P.derivative q))));
    qtest "compose eval" (QCheck.triple arb_poly arb_poly arb_rat_small) (fun (p, q, v) ->
      R.equal (P.eval (P.compose p q) v) (P.eval p (P.eval q v)));
    qtest "gcd divides" (QCheck.pair arb_poly arb_poly) (fun (p, q) ->
      QCheck.assume (not (P.is_zero p) && not (P.is_zero q));
      let g = P.gcd p q in
      P.is_zero (snd (P.divmod p g)) && P.is_zero (snd (P.divmod q g)));
    qtest "eval_float tracks eval" (QCheck.pair arb_poly arb_rat_small) (fun (p, v) ->
      let exact = R.to_float (P.eval p v) in
      abs_float (P.eval_float p (R.to_float v) -. exact) <= 1e-9 *. (1. +. abs_float exact));
  ]

(* ------------------------- Roots ------------------------- *)

let enc_mid (e : Roots.enclosure) = R.to_float (R.mid e.Roots.lo e.Roots.hi)

let roots_unit =
  [
    Alcotest.test_case "sqrt 2" `Quick (fun () ->
      let p = P.of_int_list [ -2; 0; 1 ] in
      match Roots.roots_in p ~lo:(R.of_int 0) ~hi:(R.of_int 2) with
      | [ e ] -> Alcotest.(check (float 1e-12)) "value" (sqrt 2.) (enc_mid e)
      | _ -> Alcotest.fail "expected exactly one root");
    Alcotest.test_case "paper condition beta^2 - 2beta + 6/7" `Quick (fun () ->
      let p = P.of_string_list [ "6/7"; "-2"; "1" ] in
      match Roots.roots_in p ~lo:R.zero ~hi:R.one with
      | [ e ] ->
        Alcotest.(check (float 1e-12)) "1 - sqrt(1/7)" (1. -. sqrt (1. /. 7.)) (enc_mid e)
      | _ -> Alcotest.fail "expected exactly one root");
    Alcotest.test_case "multiple roots collapse" `Quick (fun () ->
      (* (x-1)^2 (x+2): distinct real roots 1 and -2 *)
      let p = P.mul (P.pow (P.of_int_list [ -1; 1 ]) 2) (P.of_int_list [ 2; 1 ]) in
      Alcotest.(check int) "count" 2 (Roots.count_roots p ~lo:(R.of_int (-5)) ~hi:(R.of_int 5));
      let rs = Roots.root_floats p ~lo:(R.of_int (-5)) ~hi:(R.of_int 5) in
      Alcotest.(check int) "isolated" 2 (List.length rs));
    Alcotest.test_case "rational roots found exactly" `Quick (fun () ->
      (* roots 1/3 and -2/5 *)
      let p = P.mul (P.of_int_list [ -1; 3 ]) (P.of_int_list [ 2; 5 ]) in
      let es = Roots.isolate p ~lo:(R.of_int (-1)) ~hi:(R.of_int 1) in
      Alcotest.(check int) "count" 2 (List.length es));
    Alcotest.test_case "roots at interval endpoints" `Quick (fun () ->
      let p = P.mul (P.of_int_list [ 0; 1 ]) (P.of_int_list [ -1; 1 ]) in
      (* roots at exactly 0 and 1 *)
      Alcotest.(check int) "count closed" 2 (Roots.count_roots p ~lo:R.zero ~hi:R.one);
      let es = Roots.isolate p ~lo:R.zero ~hi:R.one in
      Alcotest.(check int) "enclosures" 2 (List.length es);
      List.iter
        (fun (e : Roots.enclosure) ->
          Alcotest.(check bool) "degenerate exact" true (R.equal e.lo e.hi))
        es);
    Alcotest.test_case "root exactly at the first bisection midpoint" `Quick (fun () ->
      (* (x - 1/2)(x^2 - 2)(x + 3) on [0, 1]: 1/2 is the first midpoint the
         bisection probes, and forces the strip-and-recurse path *)
      let p =
        P.mul
          (P.mul (P.of_string_list [ "-1/2"; "1" ]) (P.of_int_list [ -2; 0; 1 ]))
          (P.of_int_list [ 3; 1 ])
      in
      let es = Roots.isolate p ~lo:R.zero ~hi:R.one in
      Alcotest.(check int) "one root in [0,1]" 1 (List.length es);
      (match es with
      | [ e ] ->
        (* refinement's first probe is the midpoint 1/2, an exact root *)
        let e = Roots.refine p e ~eps:(R.of_ints 1 1000) in
        Alcotest.(check bool) "refined to the exact rational" true
          (R.equal e.Roots.lo R.half && R.equal e.Roots.hi R.half)
      | _ -> ());
      (* and over [0,2] both roots appear *)
      let es2 = Roots.isolate p ~lo:R.zero ~hi:R.two in
      Alcotest.(check int) "two roots in [0,2]" 2 (List.length es2));
    Alcotest.test_case "no roots" `Quick (fun () ->
      let p = P.of_int_list [ 1; 0; 1 ] in
      Alcotest.(check int) "x^2+1" 0 (Roots.count_roots p ~lo:(R.of_int (-10)) ~hi:(R.of_int 10)));
    Alcotest.test_case "refine certifies width" `Quick (fun () ->
      let p = P.of_int_list [ -2; 0; 1 ] in
      let eps = R.of_string "1/1000000000000000000000000000000000000000000000000" in
      match Roots.isolate p ~lo:R.zero ~hi:R.two with
      | [ e ] ->
        let e = Roots.refine p e ~eps in
        Alcotest.(check bool) "width below eps" true (R.compare (R.sub e.hi e.lo) eps < 0);
        (* certified: p changes sign across the enclosure *)
        Alcotest.(check bool) "sign change" true
          (R.sign (P.eval p e.lo) * R.sign (P.eval p e.hi) < 0)
      | _ -> Alcotest.fail "expected one root");
    Alcotest.test_case "wilkinson-style clustered roots" `Quick (fun () ->
      (* (x-1)(x-2)...(x-8): isolate all roots *)
      let p =
        List.fold_left
          (fun acc k -> P.mul acc (P.of_int_list [ -k; 1 ]))
          P.one
          [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      let rs = Roots.root_floats p ~lo:R.zero ~hi:(R.of_int 9) in
      Alcotest.(check int) "count" 8 (List.length rs);
      List.iteri
        (fun i r -> Alcotest.(check (float 1e-9)) (Printf.sprintf "root %d" (i + 1)) (float_of_int (i + 1)) r)
        rs);
  ]

let roots_props =
  [
    qtest ~count:150 "roots found satisfy p ~ 0" arb_poly (fun p ->
      QCheck.assume (P.degree p >= 1);
      let rs = Roots.root_floats p ~lo:(R.of_int (-50)) ~hi:(R.of_int 50) in
      List.for_all
        (fun r ->
          let scale = 1. +. List.fold_left (fun a c -> a +. abs_float (R.to_float c)) 0. (Array.to_list (P.coeffs p)) in
          abs_float (P.eval_float p r) <= 1e-8 *. scale *. Combinat.int_pow (1. +. abs_float r) (P.degree p))
        rs);
    qtest ~count:150 "count matches isolate" arb_poly (fun p ->
      QCheck.assume (P.degree p >= 1);
      let lo = R.of_int (-50) and hi = R.of_int 50 in
      Roots.count_roots p ~lo ~hi = List.length (Roots.isolate p ~lo ~hi));
    qtest ~count:100 "product of distinct linear factors has all roots"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 6) (QCheck.int_range (-20) 20))
      (fun ks ->
        let ks = List.sort_uniq compare ks in
        let p = List.fold_left (fun acc k -> P.mul acc (P.of_int_list [ -k; 1 ])) P.one ks in
        Roots.count_roots p ~lo:(R.of_int (-25)) ~hi:(R.of_int 25) = List.length ks);
    qtest ~count:150 "squarefree has same distinct roots" arb_poly (fun p ->
      QCheck.assume (P.degree p >= 1);
      let sq = P.mul p p in
      let lo = R.of_int (-50) and hi = R.of_int 50 in
      Roots.count_roots p ~lo ~hi = Roots.count_roots sq ~lo ~hi);
  ]

(* ------------------------- Piecewise ------------------------- *)

let pw_t1 () =
  Piecewise.make
    [
      { Piecewise.lo = R.zero; hi = R.half; poly = P.of_string_list [ "1/6"; "0"; "3/2"; "-1/2" ] };
      { Piecewise.lo = R.half; hi = R.one; poly = P.of_string_list [ "-11/6"; "9"; "-21/2"; "7/2" ] };
    ]

let piecewise_unit =
  [
    Alcotest.test_case "make validates" `Quick (fun () ->
      (try
         ignore
           (Piecewise.make
              [
                { Piecewise.lo = R.zero; hi = R.half; poly = P.one };
                { Piecewise.lo = R.of_string "3/5"; hi = R.one; poly = P.one };
              ]);
         Alcotest.fail "accepted a gap"
       with Invalid_argument _ -> ());
      (try
         ignore (Piecewise.make [ { Piecewise.lo = R.one; hi = R.zero; poly = P.one } ]);
         Alcotest.fail "accepted an empty piece"
       with Invalid_argument _ -> ());
      try
        ignore (Piecewise.make []);
        Alcotest.fail "accepted no pieces"
      with Invalid_argument _ -> ());
    Alcotest.test_case "continuity detection" `Quick (fun () ->
      Alcotest.(check bool) "T1 continuous" true (Piecewise.is_continuous (pw_t1 ()));
      let broken =
        Piecewise.make
          [
            { Piecewise.lo = R.zero; hi = R.half; poly = P.one };
            { Piecewise.lo = R.half; hi = R.one; poly = P.zero };
          ]
      in
      Alcotest.(check bool) "broken" false (Piecewise.is_continuous broken));
    Alcotest.test_case "eval picks correct piece" `Quick (fun () ->
      let pw = pw_t1 () in
      Alcotest.check rat "left" (R.of_string "1/6") (Piecewise.eval pw R.zero);
      Alcotest.check rat "breakpoint consistent" (Piecewise.eval pw R.half)
        (P.eval (P.of_string_list [ "1/6"; "0"; "3/2"; "-1/2" ]) R.half);
      Alcotest.check rat "right" (R.of_string "1/6") (Piecewise.eval pw R.one);
      Alcotest.check_raises "outside" (Invalid_argument "Piecewise.eval: outside domain")
        (fun () -> ignore (Piecewise.eval pw R.two)));
    Alcotest.test_case "maximize T1 (paper Section 5.2.1)" `Quick (fun () ->
      let res = Piecewise.maximize (pw_t1 ()) in
      Alcotest.(check (float 1e-10)) "argmax = 1 - sqrt(1/7)" (1. -. sqrt (1. /. 7.))
        (R.to_float res.Piecewise.argmax);
      Alcotest.(check (float 1e-10)) "P* = 0.5446" 0.544631139671
        (R.to_float res.Piecewise.value);
      (* the optimality condition is a scalar multiple of beta^2 - 2beta + 6/7 *)
      let interior =
        List.filter
          (fun (s : Piecewise.stationary) ->
            R.to_float (R.mid s.location.Roots.lo s.location.Roots.hi) > 0.5)
          res.Piecewise.stationaries
      in
      match interior with
      | [ s ] ->
        let monic = P.scale (R.inv (P.leading s.condition)) s.condition in
        Alcotest.check poly "condition" (P.of_string_list [ "6/7"; "-2"; "1" ]) monic
      | _ -> Alcotest.fail "expected a single stationary point above 1/2");
    Alcotest.test_case "maximize at endpoint" `Quick (fun () ->
      (* strictly increasing: max at right endpoint *)
      let pw = Piecewise.make [ { Piecewise.lo = R.zero; hi = R.one; poly = P.x } ] in
      let res = Piecewise.maximize pw in
      Alcotest.check rat "argmax" R.one res.Piecewise.argmax;
      Alcotest.check rat "value" R.one res.Piecewise.value);
    Alcotest.test_case "map_polys derivative" `Quick (fun () ->
      let d = Piecewise.map_polys P.derivative (pw_t1 ()) in
      Alcotest.check rat "derivative at 1/4"
        (P.eval (P.of_string_list [ "0"; "3"; "-3/2" ]) (R.of_ints 1 4))
        (Piecewise.eval d (R.of_ints 1 4)));
  ]

(* ------------------------- Interval ------------------------- *)

let interval_unit =
  [
    Alcotest.test_case "construction and accessors" `Quick (fun () ->
      let i = Interval.make R.zero R.one in
      Alcotest.check rat "mid" R.half (Interval.mid i);
      Alcotest.check rat "width" R.one (Interval.width i);
      Alcotest.(check bool) "mem" true (Interval.mem R.half i);
      Alcotest.(check bool) "not mem" false (Interval.mem R.two i);
      try
        ignore (Interval.make R.one R.zero);
        Alcotest.fail "accepted inverted interval"
      with Invalid_argument _ -> ());
    Alcotest.test_case "mul sign cases" `Quick (fun () ->
      let i a b = Interval.make (R.of_int a) (R.of_int b) in
      let check name exp got =
        Alcotest.check rat (name ^ " lo") (R.of_int (fst exp)) got.Interval.lo;
        Alcotest.check rat (name ^ " hi") (R.of_int (snd exp)) got.Interval.hi
      in
      check "pos*pos" (2, 12) (Interval.mul (i 1 3) (i 2 4));
      check "mixed" (-12, 12) (Interval.mul (i (-3) 3) (i 2 4));
      check "neg*neg" (2, 12) (Interval.mul (i (-3) (-1)) (i (-4) (-2)));
      check "spanning" (-9, 9) (Interval.mul (i (-3) 3) (i (-2) 3)));
    Alcotest.test_case "eval_poly soundness on samples" `Quick (fun () ->
      let p = P.of_string_list [ "-11/6"; "9"; "-21/2"; "7/2" ] in
      let i = Interval.make R.half R.one in
      let e = Interval.eval_poly p i in
      (* every sampled value must land inside the enclosure *)
      for k = 0 to 20 do
        let v = R.add R.half (R.of_ints k 40) in
        Alcotest.(check bool) "inside" true (Interval.mem (P.eval p v) e)
      done);
    Alcotest.test_case "compare_certain" `Quick (fun () ->
      let i a b = Interval.make (R.of_ints a 10) (R.of_ints b 10) in
      Alcotest.(check (option int)) "lt" (Some (-1)) (Interval.compare_certain (i 0 1) (i 2 3));
      Alcotest.(check (option int)) "gt" (Some 1) (Interval.compare_certain (i 5 6) (i 2 3));
      Alcotest.(check (option int)) "overlap" None (Interval.compare_certain (i 0 3) (i 2 5));
      Alcotest.(check (option int)) "equal points" (Some 0)
        (Interval.compare_certain (Interval.point R.half) (Interval.point R.half)));
  ]

let gen_rat_unit =
  QCheck.Gen.(map2 (fun n d -> R.of_ints n d) (int_range (-50) 50) (int_range 1 50))

let interval_props =
  [
    qtest "arithmetic soundness"
      (QCheck.make
         QCheck.Gen.(
           let* a = gen_rat_unit and* b = gen_rat_unit and* c = gen_rat_unit and* d = gen_rat_unit in
           let* x = gen_rat_unit and* y = gen_rat_unit in
           return (a, b, c, d, x, y)))
      (fun (a, b, c, d, x, y) ->
        let i1 = Interval.make (R.min a b) (R.max a b) in
        let i2 = Interval.make (R.min c d) (R.max c d) in
        (* pick points inside via clamping *)
        let clamp v i = R.max i.Interval.lo (R.min i.Interval.hi v) in
        let p1 = clamp x i1 and p2 = clamp y i2 in
        Interval.mem (R.add p1 p2) (Interval.add i1 i2)
        && Interval.mem (R.sub p1 p2) (Interval.sub i1 i2)
        && Interval.mem (R.mul p1 p2) (Interval.mul i1 i2));
  ]

(* ------------------------- Alg ------------------------- *)

let alg_unit =
  [
    Alcotest.test_case "sqrt2 decimal expansion" `Quick (fun () ->
      let s2 = List.hd (Alg.roots_of (P.of_int_list [ -2; 0; 1 ]) ~lo:R.zero ~hi:R.two) in
      Alcotest.(check string) "30 digits" "1.414213562373095048801688724209"
        (Alg.to_decimal_string ~digits:30 s2);
      Alcotest.(check (float 1e-15)) "to_float" (sqrt 2.) (Alg.to_float s2));
    Alcotest.test_case "rationals stay exact" `Quick (fun () ->
      let a = Alg.of_rat (R.of_ints 3 7) in
      Alcotest.(check (option (Alcotest.testable R.pp R.equal))) "to_rat" (Some (R.of_ints 3 7))
        (Alg.to_rat_opt a);
      Alcotest.(check int) "sign" 1 (Alg.sign a);
      Alcotest.(check string) "decimal" "0.428571" (Alg.to_decimal_string ~digits:6 a));
    Alcotest.test_case "ordering" `Quick (fun () ->
      let root p lo hi = List.hd (Alg.roots_of p ~lo ~hi) in
      let s2 = root (P.of_int_list [ -2; 0; 1 ]) R.zero R.two in
      let s3 = root (P.of_int_list [ -3; 0; 1 ]) R.zero R.two in
      Alcotest.(check int) "sqrt2 < sqrt3" (-1) (Alg.compare s2 s3);
      Alcotest.(check int) "sqrt2 > 1.414" 1
        (Alg.compare s2 (Alg.of_rat (R.of_string "1.414")));
      Alcotest.(check int) "sqrt2 < 1.4143" (-1)
        (Alg.compare s2 (Alg.of_rat (R.of_string "1.4143"))));
    Alcotest.test_case "equality across distinct defining polynomials" `Quick (fun () ->
      let s2 = List.hd (Alg.roots_of (P.of_int_list [ -2; 0; 1 ]) ~lo:R.one ~hi:R.two) in
      let s2' =
        List.hd (Alg.roots_of (P.of_int_list [ -4; 0; 0; 0; 1 ]) ~lo:R.one ~hi:R.two)
      in
      Alcotest.(check bool) "equal" true (Alg.equal s2 s2');
      (* and very close but distinct numbers separate *)
      let near =
        List.hd
          (Alg.roots_of
             (P.of_string_list [ "-2000000001/1000000000"; "0"; "1" ])
             ~lo:R.one ~hi:R.two)
      in
      Alcotest.(check int) "sqrt(2+1e-9) > sqrt2" 1 (Alg.compare near s2));
    Alcotest.test_case "negative algebraic numbers" `Quick (fun () ->
      let neg_s2 =
        List.hd (Alg.roots_of (P.of_int_list [ -2; 0; 1 ]) ~lo:(R.of_int (-2)) ~hi:R.zero)
      in
      Alcotest.(check int) "sign" (-1) (Alg.sign neg_s2);
      Alcotest.(check string) "decimal" "-1.414213562373"
        (Alg.to_decimal_string ~digits:12 neg_s2);
      Alcotest.(check int) "ordering vs positive" (-1)
        (Alg.compare neg_s2 (Alg.of_rat R.zero)));
    Alcotest.test_case "of_root validates isolation" `Quick (fun () ->
      let p = P.of_int_list [ 2; -3; 1 ] in
      (* roots 1 and 2: [0,3] holds both *)
      try
        ignore (Alg.of_root p { Roots.lo = R.zero; hi = R.of_int 3 });
        Alcotest.fail "accepted non-isolating interval"
      with Invalid_argument _ -> ());
    Alcotest.test_case "the paper's beta* as an algebraic number" `Quick (fun () ->
      let cond = P.of_string_list [ "6/7"; "-2"; "1" ] in
      let beta = List.hd (Alg.roots_of cond ~lo:R.zero ~hi:R.one) in
      (* 1 - sqrt(1/7) to 25 certified digits *)
      Alcotest.(check string) "digits" "0.6220355269907727727854834"
        (Alg.to_decimal_string ~digits:25 beta));
    Alcotest.test_case "compare_poly_values certifies value ordering" `Quick (fun () ->
      let q = P.of_string_list [ "-11/6"; "9"; "-21/2"; "7/2" ] in
      let cond = P.of_string_list [ "6/7"; "-2"; "1" ] in
      let beta = List.hd (Alg.roots_of cond ~lo:R.zero ~hi:R.one) in
      (* q at beta_star exceeds q(0.6) and q(0.65), since beta_star is the max *)
      Alcotest.(check int) "vs 0.6" 1
        (Alg.compare_poly_values q beta (Alg.of_rat (R.of_string "0.6")));
      Alcotest.(check int) "vs 0.65" 1
        (Alg.compare_poly_values q beta (Alg.of_rat (R.of_string "0.65"))));
  ]

let alg_props =
  [
    qtest ~count:100 "compare agrees with float compare when far apart"
      (QCheck.pair (QCheck.int_range 2 400) (QCheck.int_range 2 400))
      (fun (a, b) ->
        QCheck.assume (a <> b);
        let root k =
          List.hd
            (Alg.roots_of (P.of_int_list [ -k; 0; 1 ]) ~lo:R.zero ~hi:(R.of_int (k + 1)))
        in
        compare (sqrt (float_of_int a)) (sqrt (float_of_int b))
        = Alg.compare (root a) (root b));
    qtest ~count:50 "to_decimal_string prefix-consistent with to_float"
      (QCheck.int_range 2 200)
      (fun k ->
        QCheck.assume
          (let s = int_of_float (sqrt (float_of_int k)) in
           s * s <> k);
        let r = List.hd (Alg.roots_of (P.of_int_list [ -k; 0; 1 ]) ~lo:R.zero ~hi:(R.of_int k)) in
        let s = Alg.to_decimal_string ~digits:12 r in
        abs_float (float_of_string s -. sqrt (float_of_int k)) < 1e-11);
  ]

(* ------------------------- certified maximize ------------------------- *)

let certified_unit =
  [
    Alcotest.test_case "maximize_certified matches maximize on T1" `Quick (fun () ->
      let pw = pw_t1 () in
      let plain = Piecewise.maximize pw in
      let cert = Piecewise.maximize_certified pw in
      Alcotest.(check (float 1e-12)) "argmax" (R.to_float plain.Piecewise.argmax)
        (Alg.to_float cert.Piecewise.arg);
      Alcotest.(check bool) "value inside enclosure" true
        (Interval.mem plain.Piecewise.value cert.Piecewise.value_enclosure
        || R.compare
             (R.abs (R.sub plain.Piecewise.value (Interval.mid cert.Piecewise.value_enclosure)))
             (R.of_string "1/1000000000000000000")
           < 0);
      (* P* = 1/6 + 1/sqrt(7): certified decimal *)
      Alcotest.(check string) "certified P* digits" "0.544631139675893893881"
        (R.to_decimal_string ~digits:21 (Interval.mid cert.Piecewise.value_enclosure)));
    Alcotest.test_case "certified argmax is the exact algebraic root" `Quick (fun () ->
      let pw = pw_t1 () in
      let cert = Piecewise.maximize_certified pw in
      (* the arg is a root of the derivative: plugging into the stored
         polynomial's derivative gives an interval containing 0 *)
      let deriv = P.derivative cert.Piecewise.arg_piece in
      let v = Alg.eval_poly_interval deriv cert.Piecewise.arg in
      Alcotest.(check bool) "derivative vanishes" true (Interval.mem R.zero v));
    Alcotest.test_case "endpoint maximum is returned as a rational" `Quick (fun () ->
      let pw = Piecewise.make [ { Piecewise.lo = R.zero; hi = R.one; poly = P.x } ] in
      let cert = Piecewise.maximize_certified pw in
      Alcotest.(check (option (Alcotest.testable R.pp R.equal))) "arg = 1" (Some R.one)
        (Alg.to_rat_opt cert.Piecewise.arg));
  ]

(* ------------------------- Reference ------------------------- *)

(* Schoolbook references for [Poly] and [Roots.refine], with every step
   normalised through [Rat]. The fraction-free code must equal them
   coefficient for coefficient and enclosure for enclosure. *)
module Ref = struct
  let mul p q =
    let p = P.coeffs p and q = P.coeffs q in
    let lp = Array.length p and lq = Array.length q in
    if lp = 0 || lq = 0 then P.zero
    else begin
      let r = Array.make (lp + lq - 1) R.zero in
      for i = 0 to lp - 1 do
        if not (R.is_zero p.(i)) then
          for j = 0 to lq - 1 do
            r.(i + j) <- R.add r.(i + j) (R.mul p.(i) q.(j))
          done
      done;
      P.of_list (Array.to_list r)
    end

  let eval p v =
    let p = P.coeffs p in
    let acc = ref R.zero in
    for i = Array.length p - 1 downto 0 do
      acc := R.add (R.mul !acc v) p.(i)
    done;
    !acc

  let divmod p q =
    if P.is_zero q then raise Division_by_zero;
    let dq = P.degree q in
    let lead_inv = R.inv (P.leading q) in
    let rem = ref p and quo = ref P.zero in
    while P.degree !rem >= dq do
      let d = P.degree !rem in
      let c = R.mul (P.leading !rem) lead_inv in
      let m = P.monomial c (d - dq) in
      quo := P.add !quo m;
      rem := P.sub !rem (mul m q)
    done;
    (!quo, !rem)

  let rec gcd p q =
    if P.is_zero q then (if P.is_zero p then p else P.scale (R.inv (P.leading p)) p)
    else gcd q (snd (divmod p q))

  let squarefree p =
    if P.degree p <= 0 then p
    else begin
      let g = gcd p (P.derivative p) in
      if P.degree g <= 0 then p else fst (divmod p g)
    end

  let rec strip_root p v =
    if (not (P.is_zero p)) && R.is_zero (eval p v) then
      strip_root (fst (divmod p (P.linear (R.neg v) R.one))) v
    else p

  let refine p (e : Roots.enclosure) ~eps =
    if R.equal e.Roots.lo e.Roots.hi then e
    else begin
      let p = squarefree p in
      let p = strip_root (strip_root p e.Roots.lo) e.Roots.hi in
      let s_lo = R.sign (eval p e.Roots.lo) in
      let rec go lo hi =
        if R.compare (R.sub hi lo) eps < 0 then { Roots.lo; hi }
        else begin
          let m = R.mid lo hi in
          let s_m = R.sign (eval p m) in
          if s_m = 0 then { Roots.lo = m; hi = m } else if s_m = s_lo then go m hi else go lo m
        end
      in
      go e.Roots.lo e.Roots.hi
    end
end

(* Coefficients mixing zeros, integers, small fractions and denominators
   far beyond one limb. *)
let gen_coeff =
  QCheck.Gen.(
    frequency
      [
        (2, return R.zero);
        (3, map R.of_int (int_range (-30) 30));
        (4, gen_rat_small);
        ( 2,
          let* num = int_range (-1_000_000_007) 1_000_000_007 in
          let* den = int_range 1 1_000_000_007 and* shift = int_range 0 90 in
          return (R.make (Bigint.of_int num) (Bigint.shift_left (Bigint.of_int den) shift)) );
      ])

(* Degree -1 (zero) to 7, constants included, trailing zeros trimmed. *)
let gen_poly_wide =
  QCheck.Gen.(
    let* deg = frequency [ (1, return (-1)); (1, return 0); (6, int_range 1 7) ] in
    let* coeffs = list_repeat (deg + 1) gen_coeff in
    return (P.of_list coeffs))

let gen_int_poly =
  QCheck.Gen.(
    let* deg = int_range (-1) 7 in
    let* coeffs = list_repeat (deg + 1) (int_range (-1000) 1000) in
    return (P.of_int_list coeffs))

let arb_poly_wide =
  QCheck.make ~print:P.to_string QCheck.Gen.(frequency [ (3, gen_poly_wide); (1, gen_int_poly) ])

let arb_point = QCheck.make ~print:R.to_string gen_coeff

let enclosure =
  Alcotest.testable
    (fun fmt (e : Roots.enclosure) -> Format.fprintf fmt "[%a, %a]" R.pp e.Roots.lo R.pp e.Roots.hi)
    (fun (a : Roots.enclosure) b -> R.equal a.Roots.lo b.Roots.lo && R.equal a.Roots.hi b.Roots.hi)

(* Every enclosure [Roots.isolate] finds in [-64, 64], refined by both. *)
let refine_agrees p eps =
  List.for_all
    (fun e -> Alcotest.equal enclosure (Roots.refine p e ~eps) (Ref.refine p e ~eps))
    (Roots.isolate p ~lo:(R.of_int (-64)) ~hi:(R.of_int 64))

let reference_props =
  [
    qtest "mul equals the schoolbook product" (QCheck.pair arb_poly_wide arb_poly_wide) (fun (p, q) ->
      P.equal (P.mul p q) (Ref.mul p q));
    qtest "eval equals schoolbook Horner" (QCheck.pair arb_poly_wide arb_point) (fun (p, v) ->
      R.equal (P.eval p v) (Ref.eval p v));
    qtest "divmod equals schoolbook division" (QCheck.pair arb_poly_wide arb_poly_wide) (fun (p, q) ->
      QCheck.assume (not (P.is_zero q));
      let q1, r1 = P.divmod p q and q2, r2 = Ref.divmod p q in
      P.equal q1 q2 && P.equal r1 r2);
    qtest "sign_at is the sign of eval at an unnormalised fraction"
      (QCheck.triple arb_poly_wide arb_point (QCheck.int_range 1 1_000_000))
      (fun (p, v, k) ->
        let k = Bigint.of_int k in
        Poly.sign_at p (Bigint.mul (R.num v) k) (Bigint.mul (R.den v) k) = R.sign (Ref.eval p v));
    qtest ~count:100 "refine equals rational bisection, enclosure for enclosure"
      (QCheck.pair
         (QCheck.make ~print:P.to_string
            QCheck.Gen.(
              let* deg = int_range 1 5 in
              let* coeffs = list_repeat (deg + 1) gen_coeff in
              return (P.of_list coeffs)))
         (QCheck.pair (QCheck.int_range 1 40) QCheck.bool))
      (fun (p, (digits, dyadic)) ->
        QCheck.assume (P.degree p >= 1);
        (* a dyadic eps lands exactly on a bisection width: the stop test is strict *)
        let base = if dyadic then 8 else 10 in
        refine_agrees p (R.make Bigint.one (Bigint.pow (Bigint.of_int base) digits)));
    qtest ~count:200 "refine stops on a root at a bisection midpoint"
      (QCheck.make
         QCheck.Gen.(
           let* lo = gen_rat_small and* w = gen_rat_unit and* s = int_range 1 12 in
           let* k = int_range 0 ((1 lsl (s - 1)) - 1) in
           return (lo, R.abs w, s, (2 * k) + 1)))
      (fun (lo, w, s, k) ->
        QCheck.assume (R.sign w > 0);
        (* the root is the odd grid point k / 2^s of [lo, lo + w]; x^2 + 1
           keeps it the enclosure's only root *)
        let root = R.add lo (R.div (R.mul_int w k) (R.of_bigint (Bigint.shift_left Bigint.one s))) in
        let p = P.mul (P.linear (R.neg root) R.one) (P.of_int_list [ 1; 0; 1 ]) in
        let e = { Roots.lo; hi = R.add lo w } in
        let eps = R.of_ints 1 1_000_000_000 in
        let got = Roots.refine p e ~eps in
        Alcotest.equal enclosure got (Ref.refine p e ~eps) && R.equal got.Roots.lo root && R.equal got.Roots.hi root);
    Alcotest.test_case "reference agreement on edge cases" `Quick (fun () ->
      let big = R.of_string "123456789012345678901234567890/98765432109876543210987654321" in
      let polys =
        [ P.zero; P.one; P.constant big; P.of_int_list [ 0; 0; 3 ]; P.of_int_list [ -2; 0; 1 ];
          P.of_list [ big; R.neg big; R.one ]; P.of_string_list [ "6/7"; "-2"; "1" ] ]
      in
      let points = [ R.zero; R.one; R.of_ints (-7) 3; big; R.of_string "1/340282366920938463463374607431768211456" ] in
      List.iter
        (fun p ->
          List.iter (fun v -> Alcotest.check rat (P.to_string p) (Ref.eval p v) (P.eval p v)) points;
          List.iter
            (fun q ->
              Alcotest.check poly "mul" (Ref.mul p q) (P.mul p q);
              if not (P.is_zero q) then begin
                let q1, r1 = P.divmod p q and q2, r2 = Ref.divmod p q in
                Alcotest.check poly "quotient" q2 q1;
                Alcotest.check poly "remainder" r2 r1
              end)
            polys)
        polys;
      (* the paper's n = 3 condition, refined to the default width *)
      Alcotest.(check bool) "paper condition" true
        (refine_agrees (P.of_string_list [ "6/7"; "-2"; "1" ]) Roots.default_eps);
      (* a width equal to eps is not below it: bisect once more *)
      let p = P.of_string_list [ "-1/2"; "0"; "1" ] and e = { Roots.lo = R.zero; hi = R.one } in
      let eps = R.of_ints 1 8 in
      Alcotest.check enclosure "width equal to eps" (Ref.refine p e ~eps) (Roots.refine p e ~eps);
      Alcotest.check rat "one bisection past eps" (R.of_ints 1 16)
        (let e = Roots.refine p e ~eps in R.sub e.Roots.hi e.Roots.lo));
  ]

let () =
  Alcotest.run "poly"
    [
      ("poly-unit", poly_unit);
      ("poly-prop", poly_props);
      ("roots-unit", roots_unit);
      ("roots-prop", roots_props);
      ("piecewise", piecewise_unit);
      ("interval", interval_unit);
      ("interval-prop", interval_props);
      ("alg", alg_unit);
      ("alg-prop", alg_props);
      ("certified", certified_unit);
      ("reference", reference_props);
    ]
