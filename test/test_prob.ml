(* Tests for the probability substrate: PRNG, uniform-sum laws (paper
   Lemmas 2.4, 2.5, 2.7 and Corollary 2.6), statistics and the MC harness. *)

module U = Uniform_sum
module R = Rat

let rat = Alcotest.testable R.pp R.equal

let qtest ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------- Rng ------------------------- *)

let rng_tests =
  [
    Alcotest.test_case "determinism per seed" `Quick (fun () ->
      let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
      for _ = 1 to 100 do
        Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
      done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
      let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
      let same = ref 0 in
      for _ = 1 to 64 do
        if Rng.next_int64 a = Rng.next_int64 b then incr same
      done;
      Alcotest.(check bool) "streams diverge" true (!same < 4));
    Alcotest.test_case "copy independence" `Quick (fun () ->
      let a = Rng.create ~seed:9 in
      ignore (Rng.next_int64 a);
      let b = Rng.copy a in
      let va = Rng.next_int64 a in
      let vb = Rng.next_int64 b in
      Alcotest.(check int64) "copies replay" va vb);
    Alcotest.test_case "float01 range and moments" `Quick (fun () ->
      let rng = Rng.create ~seed:4242 in
      let acc = ref Stats.empty in
      for _ = 1 to 100_000 do
        let v = Rng.float01 rng in
        if v < 0. || v >= 1. then Alcotest.fail "out of range";
        acc := Stats.add !acc v
      done;
      Alcotest.(check (float 0.01)) "mean" 0.5 (Stats.mean !acc);
      Alcotest.(check (float 0.01)) "variance" (1. /. 12.) (Stats.variance !acc));
    Alcotest.test_case "int_below bounds and uniformity" `Quick (fun () ->
      let rng = Rng.create ~seed:31337 in
      let counts = Array.make 7 0 in
      for _ = 1 to 70_000 do
        let v = Rng.int_below rng 7 in
        counts.(v) <- counts.(v) + 1
      done;
      Array.iter
        (fun c -> Alcotest.(check bool) "within 5%" true (abs (c - 10_000) < 500))
        counts);
    Alcotest.test_case "bernoulli frequency" `Quick (fun () ->
      let rng = Rng.create ~seed:555 in
      let hits = ref 0 in
      for _ = 1 to 100_000 do
        if Rng.bernoulli rng 0.3 then incr hits
      done;
      Alcotest.(check bool) "about 0.3" true (abs (!hits - 30_000) < 1_000));
  ]

(* ------------------------- Uniform_sum ------------------------- *)

let gen_widths =
  QCheck.Gen.(
    let* m = int_range 1 7 in
    list_repeat m (map (fun k -> float_of_int k /. 10.) (int_range 1 10)))

let arb_widths_t =
  QCheck.make
    ~print:(fun (ws, t) ->
      Printf.sprintf "widths=[%s] t=%.3f" (String.concat ";" (List.map string_of_float ws)) t)
    QCheck.Gen.(
      let* ws = gen_widths in
      let* t = float_range 0.01 (List.fold_left ( +. ) 0.2 ws) in
      return (ws, t))

let uniform_sum_tests =
  [
    Alcotest.test_case "Cor 2.6: Irwin-Hall landmarks" `Quick (fun () ->
      Alcotest.check rat "m=1 t=1/2" R.half (U.Q.irwin_hall_cdf ~m:1 R.half);
      Alcotest.check rat "m=2 t=1" R.half (U.Q.irwin_hall_cdf ~m:2 R.one);
      Alcotest.check rat "m=2 t=1/2" (R.of_ints 1 8) (U.Q.irwin_hall_cdf ~m:2 R.half);
      Alcotest.check rat "m=3 t=1" (R.of_ints 1 6) (U.Q.irwin_hall_cdf ~m:3 R.one);
      Alcotest.check rat "saturates" R.one (U.Q.irwin_hall_cdf ~m:3 (R.of_int 5));
      Alcotest.check rat "zero below 0" R.zero (U.Q.irwin_hall_cdf ~m:3 (R.of_int (-1))));
    Alcotest.test_case "Irwin-Hall symmetry F(t) + F(m-t) = 1" `Quick (fun () ->
      for m = 1 to 8 do
        let t = R.of_ints m 3 in
        let s = R.add (U.Q.irwin_hall_cdf ~m t) (U.Q.irwin_hall_cdf ~m (R.sub (R.of_int m) t)) in
        Alcotest.check rat (Printf.sprintf "m=%d" m) R.one s
      done);
    Alcotest.test_case "Lemma 2.4 equals Cor 2.6 on unit widths" `Quick (fun () ->
      for m = 1 to 6 do
        let widths = Array.make m R.one in
        let t = R.of_ints (2 * m) 5 in
        Alcotest.check rat (Printf.sprintf "m=%d" m) (U.Q.irwin_hall_cdf ~m t)
          (U.Q.cdf ~widths t)
      done);
    Alcotest.test_case "Lemma 2.4 dim 1 and 2 analytic" `Quick (fun () ->
      (* single U[0, 1/2] at t = 1/4 -> 1/2 *)
      Alcotest.check rat "1D" R.half (U.Q.cdf ~widths:[| R.half |] (R.of_ints 1 4));
      (* U[0,1] + U[0,2] at t=1: area {x+y<=1, 0<=x<=1, 0<=y<=2}/2 = (1/2)/2 *)
      Alcotest.check rat "2D" (R.of_ints 1 4) (U.Q.cdf ~widths:[| R.one; R.of_int 2 |] R.one));
    Alcotest.test_case "zero widths are point masses" `Quick (fun () ->
      Alcotest.check rat "dropped"
        (U.Q.cdf ~widths:[| R.one; R.half |] R.one)
        (U.Q.cdf ~widths:[| R.one; R.zero; R.half; R.zero |] R.one);
      Alcotest.check rat "all zero, t >= 0" R.one (U.Q.cdf ~widths:[| R.zero |] R.zero));
    Alcotest.test_case "Lemma 2.7 shifted landmarks" `Quick (fun () ->
      (* one U[1/2, 1] at t = 3/4 -> 1/2 *)
      Alcotest.check rat "1D" R.half (U.Q.cdf_shifted ~lowers:[| R.half |] (R.of_ints 3 4));
      (* degenerate pi=1: point mass at 1 *)
      Alcotest.check rat "pi=1 below" R.zero (U.Q.cdf_shifted ~lowers:[| R.one |] R.half);
      Alcotest.check rat "pi=1 at 1" R.one (U.Q.cdf_shifted ~lowers:[| R.one |] R.one));
    Alcotest.test_case "Lemma 2.7 equals complement of Lemma 2.4" `Quick (fun () ->
      (* all lowers 0: U[0,1]; shifted cdf must equal Irwin-Hall *)
      for m = 1 to 5 do
        let t = R.of_ints (2 * m) 3 in
        Alcotest.check rat (Printf.sprintf "m=%d" m) (U.Q.irwin_hall_cdf ~m t)
          (U.Q.cdf_shifted ~lowers:(Array.make m R.zero) t)
      done);
    Alcotest.test_case "equal-width fast path equals general" `Quick (fun () ->
      for m = 1 to 7 do
        let width = R.of_ints 3 5 in
        let t = R.of_ints m 2 in
        Alcotest.check rat
          (Printf.sprintf "m=%d" m)
          (U.Q.cdf ~widths:(Array.make m width) t)
          (U.Q.cdf_equal ~m ~width t)
      done);
    Alcotest.test_case "equal shifted fast path equals general" `Quick (fun () ->
      for m = 1 to 7 do
        let lower = R.of_ints 5 8 in
        let t = R.of_ints (3 * m) 4 in
        Alcotest.check rat
          (Printf.sprintf "m=%d" m)
          (U.Q.cdf_shifted ~lowers:(Array.make m lower) t)
          (U.Q.cdf_equal_shifted ~m ~lower t)
      done);
    Alcotest.test_case "Lemma 2.5 density integrates to the CDF" `Quick (fun () ->
      (* Simpson integration of the exact pdf recovers the cdf. *)
      let widths = [| 0.4; 0.7; 1.0 |] in
      let t = 1.3 in
      let n = 2000 in
      let h = t /. float_of_int n in
      let sum = ref (U.pdf ~widths 1e-12 +. U.pdf ~widths t) in
      for i = 1 to n - 1 do
        let w = if i land 1 = 1 then 4. else 2. in
        sum := !sum +. (w *. U.pdf ~widths (h *. float_of_int i))
      done;
      let integral = !sum *. h /. 3. in
      Alcotest.(check (float 1e-6)) "integral" (U.cdf ~widths t) integral);
    Alcotest.test_case "Rota density formula vs histogram (L1)" `Quick (fun () ->
      let widths = [| 0.5; 1.0; 0.8 |] in
      let rng = Rng.create ~seed:2718 in
      let samples =
        Array.init 200_000 (fun _ ->
          Array.fold_left (fun acc w -> acc +. (Rng.float01 rng *. w)) 0. widths)
      in
      let h = Stats.histogram ~bins:20 ~lo:0. ~hi:2.3 samples in
      for i = 2 to 17 do
        let x = Stats.bin_center h i in
        let emp = Stats.histogram_density h i in
        let thy = U.pdf ~widths x in
        Alcotest.(check bool)
          (Printf.sprintf "bin %d" i)
          true
          (abs_float (emp -. thy) < 0.05)
      done);
    Alcotest.test_case "exact pdf matches float pdf" `Quick (fun () ->
      let widths_r = [| R.half; R.one; R.of_ints 4 5 |] in
      let widths_f = Array.map R.to_float widths_r in
      let t = R.of_ints 11 10 in
      Alcotest.(check (float 1e-12)) "pdf" (U.pdf ~widths:widths_f (R.to_float t))
        (R.to_float (U.Q.pdf ~widths:widths_r t)));
    Alcotest.test_case "Irwin-Hall pdf: symmetry, support, normalization" `Quick (fun () ->
      for m = 1 to 6 do
        let fm = float_of_int m in
        (* symmetric about m/2 *)
        List.iter
          (fun t ->
            Alcotest.(check (float 1e-10))
              (Printf.sprintf "m=%d t=%.2f" m t)
              (U.irwin_hall_pdf ~m t)
              (U.irwin_hall_pdf ~m (fm -. t)))
          [ 0.1; 0.33 *. fm; 0.45 *. fm ];
        (* zero outside the support *)
        Alcotest.(check (float 0.)) "left" 0. (U.irwin_hall_pdf ~m (-0.5));
        Alcotest.(check (float 0.)) "right" 0. (U.irwin_hall_pdf ~m (fm +. 0.5));
        (* integrates to 1 (Simpson) *)
        let steps = 600 in
        let h = fm /. float_of_int steps in
        let sum = ref 0. in
        for i = 1 to steps - 1 do
          let w = if i land 1 = 1 then 4. else 2. in
          sum := !sum +. (w *. U.irwin_hall_pdf ~m (h *. float_of_int i))
        done;
        (* 2e-3 tolerance: the integrand is discontinuous at the support
           edges for m = 1 and Simpson omits the endpoints *)
        Alcotest.(check (float 2e-3)) (Printf.sprintf "mass m=%d" m) 1. (!sum *. h /. 3.)
      done);
    Alcotest.test_case "shifted cdf with mixed degenerate lowers" `Quick (fun () ->
      (* lowers containing both 0 and 1: sum = U[0,1] + 1 + U[1/2,1], so
         P(sum <= 2) reduces to the two-variable shifted law at t = 1 *)
      let lowers = [| R.zero; R.one; R.half |] in
      let direct = U.Q.cdf_shifted ~lowers:[| R.zero; R.half |] R.one in
      Alcotest.check rat "matches reduction" direct (U.Q.cdf_shifted ~lowers (R.of_int 2)));
    Alcotest.test_case "both fields reject negative widths and stray lowers" `Quick (fun () ->
      let rejects what f =
        match f () with
        | _ -> Alcotest.failf "%s accepted a bad argument" what
        | exception Invalid_argument _ -> ()
      in
      rejects "float cdf" (fun () -> U.cdf ~widths:[| 0.5; -0.25 |] 0.3);
      rejects "exact cdf" (fun () -> U.Q.cdf ~widths:[| R.half; R.of_ints (-1) 4 |] R.half);
      rejects "float pdf nan" (fun () -> U.pdf ~widths:[| 0.5; Float.nan |] 0.3);
      rejects "float shifted" (fun () -> U.cdf_shifted ~lowers:[| 1.5 |] 1.);
      rejects "exact shifted" (fun () -> U.Q.cdf_shifted ~lowers:[| R.of_ints 3 2 |] R.one));
  ]

let uniform_sum_props =
  [
    qtest "cdf in [0,1] and monotone" arb_widths_t (fun (ws, t) ->
      let widths = Array.of_list ws in
      let a = U.cdf ~widths t in
      let b = U.cdf ~widths (t +. 0.1) in
      (* the inclusion-exclusion loses bits; see the X2 ablation *)
      a >= 0. && a <= 1. && a <= b +. 1e-8);
    qtest "cdf exact matches float" arb_widths_t (fun (ws, t) ->
      let widths_f = Array.of_list ws in
      let widths_r = Array.map R.of_float widths_f in
      let exact = R.to_float (U.Q.cdf ~widths:widths_r (R.of_float t)) in
      abs_float (exact -. U.cdf ~widths:widths_f t) <= 1e-9);
    qtest "shifted cdf via complement identity" arb_widths_t (fun (ws, t) ->
      (* lowers in [0,1): reuse widths scaled into [0,1) *)
      let lowers = Array.of_list (List.map (fun w -> w /. 1.01 |> Float.min 0.99) ws) in
      let m = Array.length lowers in
      let direct = U.cdf_shifted ~lowers t in
      let via = 1. -. U.cdf ~widths:(Array.map (fun l -> 1. -. l) lowers) (float_of_int m -. t) in
      abs_float (direct -. Float.max 0. (Float.min 1. via)) <= 1e-9);
    qtest ~count:30 "cdf agrees with Monte-Carlo" arb_widths_t (fun (ws, t) ->
      let widths = Array.of_list ws in
      let rng = Rng.create ~seed:(Hashtbl.hash (ws, t)) in
      let est =
        Mc.probability ~rng ~samples:60_000 (fun rng ->
          Array.fold_left (fun acc w -> acc +. (Rng.float01 rng *. w)) 0. widths <= t)
      in
      (* 5-sigma: the property runs on fresh random cases every execution,
         so a 95% interval would flake roughly every few runs *)
      abs_float (est.Mc.mean -. U.cdf ~widths t) <= (5. *. est.Mc.stderr) +. 1e-4);
  ]

(* ------------------------- Stats / Mc ------------------------- *)

let stats_tests =
  [
    Alcotest.test_case "welford matches direct formulas" `Quick (fun () ->
      let data = [| 1.0; 2.0; 4.0; 8.0; 16.0 |] in
      let acc = Stats.of_array data in
      let n = float_of_int (Array.length data) in
      let mean = Array.fold_left ( +. ) 0. data /. n in
      let var =
        Array.fold_left (fun a x -> a +. ((x -. mean) ** 2.)) 0. data /. (n -. 1.)
      in
      Alcotest.(check (float 1e-12)) "mean" mean (Stats.mean acc);
      Alcotest.(check (float 1e-12)) "variance" var (Stats.variance acc);
      Alcotest.(check int) "count" 5 (Stats.count acc));
    Alcotest.test_case "degenerate stats" `Quick (fun () ->
      Alcotest.(check (float 0.)) "empty mean" 0. (Stats.mean Stats.empty);
      Alcotest.(check (float 0.)) "single variance" 0.
        (Stats.variance (Stats.add Stats.empty 3.)));
    Alcotest.test_case "wilson interval contains p-hat" `Quick (fun () ->
      let lo, hi = Stats.wilson_interval ~successes:30 ~trials:100 () in
      Alcotest.(check bool) "contains" true (lo < 0.3 && 0.3 < hi);
      Alcotest.(check bool) "in [0,1]" true (lo >= 0. && hi <= 1.);
      let lo0, _ = Stats.wilson_interval ~successes:0 ~trials:50 () in
      Alcotest.(check (float 1e-12)) "at zero" 0. lo0);
    Alcotest.test_case "histogram outliers and totals" `Quick (fun () ->
      (* -0.5 and 1.5 are out of range: counted in [outliers], not clamped
         into the edge bins (the pre-fix behaviour inflated edge densities) *)
      let h = Stats.histogram ~bins:4 ~lo:0. ~hi:1. [| -0.5; 0.1; 0.3; 0.6; 0.9; 1.5 |] in
      Alcotest.(check int) "total" 6 h.Stats.total;
      Alcotest.(check int) "outliers" 2 h.Stats.outliers;
      Alcotest.(check int) "low bin holds only in-range samples" 1 h.Stats.counts.(0);
      Alcotest.(check int) "high bin holds only in-range samples" 1 h.Stats.counts.(3);
      (* density normalizes over the 4 in-range samples: each occupied bin
         carries mass 1/4 over width 1/4 *)
      Alcotest.(check (float 1e-12)) "density excludes outliers" 1. (Stats.histogram_density h 0);
      let sum = ref 0. in
      for i = 0 to 3 do
        sum := !sum +. (Stats.histogram_density h i *. 0.25)
      done;
      Alcotest.(check (float 1e-12)) "densities integrate to one" 1. !sum;
      (* x = hi is in range, in the last bin *)
      let h2 = Stats.histogram ~bins:2 ~lo:0. ~hi:1. [| 1.0 |] in
      Alcotest.(check int) "x = hi lands in the last bin" 1 h2.Stats.counts.(1);
      Alcotest.(check int) "x = hi is not an outlier" 0 h2.Stats.outliers);
    Alcotest.test_case "histogram merge sums bins and outliers" `Quick (fun () ->
      let a = Stats.histogram ~bins:3 ~lo:0. ~hi:3. [| 0.5; 1.5; 7. |] in
      let b = Stats.histogram ~bins:3 ~lo:0. ~hi:3. [| 1.7; 2.5; -1. |] in
      let m = Stats.histogram_merge a b in
      Alcotest.(check int) "total" 6 m.Stats.total;
      Alcotest.(check int) "outliers" 2 m.Stats.outliers;
      Alcotest.(check int) "bin 1" 2 m.Stats.counts.(1);
      Alcotest.check_raises "shape mismatch"
        (Invalid_argument "Stats.histogram_merge: shapes differ") (fun () ->
          ignore (Stats.histogram_merge a (Stats.histogram ~bins:2 ~lo:0. ~hi:3. [||]))));
    Alcotest.test_case "merge matches feeding one accumulator" `Quick (fun () ->
      let data = Array.init 101 (fun i -> sin (float_of_int i)) in
      let whole = Stats.of_array data in
      let left = Stats.of_array (Array.sub data 0 40) in
      let right = Stats.of_array (Array.sub data 40 61) in
      let merged = Stats.merge left right in
      Alcotest.(check int) "count" (Stats.count whole) (Stats.count merged);
      Alcotest.(check (float 1e-12)) "mean" (Stats.mean whole) (Stats.mean merged);
      Alcotest.(check (float 1e-12)) "variance" (Stats.variance whole) (Stats.variance merged);
      Alcotest.(check int) "empty is identity" 7
        (Stats.count (Stats.merge Stats.empty (Stats.merge (Stats.of_array (Array.make 7 1.)) Stats.empty))));
    Alcotest.test_case "mc probability of certainty" `Quick (fun () ->
      let rng = Rng.create ~seed:1 in
      let est = Mc.probability ~rng ~samples:1000 (fun _ -> true) in
      Alcotest.(check (float 0.)) "p=1" 1. est.Mc.mean;
      Alcotest.(check bool) "agrees with 1" true (Mc.agrees est 1.));
    Alcotest.test_case "mc expectation of uniform" `Quick (fun () ->
      let rng = Rng.create ~seed:2 in
      let est = Mc.expectation ~rng ~samples:100_000 Rng.float01 in
      Alcotest.(check bool) "mean near 1/2" true (Mc.agrees est 0.5));
  ]

(* ------------------- Stats accumulator edge cases ------------------- *)

(* Pins for the NaN/validation fixes that rode along with the batch
   kernel: these are the exact behaviours the kernel's fused accumulation
   relies on. *)
let stats_edge_tests =
  [
    Alcotest.test_case "histogram routes non-finite samples to outliers" `Quick (fun () ->
      (* NaN fails both range comparisons; pre-fix it fell through
         int_of_float and silently landed in bin 0 *)
      let h = Stats.histogram_empty ~bins:4 ~lo:0. ~hi:1. in
      List.iter
        (Stats.histogram_observe h)
        [ Float.nan; Float.infinity; Float.neg_infinity; -0.25; 1.25; 0.125 ];
      Alcotest.(check int) "total counts every observation" 6 h.Stats.total;
      Alcotest.(check int) "all non-finite and out-of-range are outliers" 5 h.Stats.outliers;
      Alcotest.(check int) "bin 0 holds only the genuine sample" 1 h.Stats.counts.(0);
      Alcotest.(check int) "no bin beyond it" 0
        (h.Stats.counts.(1) + h.Stats.counts.(2) + h.Stats.counts.(3));
      let harr = Stats.histogram ~bins:4 ~lo:0. ~hi:1. [| Float.nan |] in
      Alcotest.(check int) "array constructor agrees" 1 harr.Stats.outliers);
    Alcotest.test_case "wilson_interval validates its counts by name" `Quick (fun () ->
      Alcotest.check_raises "negative successes"
        (Invalid_argument "Stats.wilson_interval: successes = -1 outside [0, trials = 10]")
        (fun () -> ignore (Stats.wilson_interval ~successes:(-1) ~trials:10 ()));
      Alcotest.check_raises "successes > trials"
        (Invalid_argument "Stats.wilson_interval: successes = 11 outside [0, trials = 10]")
        (fun () -> ignore (Stats.wilson_interval ~successes:11 ~trials:10 ()));
      Alcotest.check_raises "zero trials" (Invalid_argument "Stats.wilson_interval: trials")
        (fun () -> ignore (Stats.wilson_interval ~successes:0 ~trials:0 ()));
      (* the full-range cases remain legal *)
      let lo, hi = Stats.wilson_interval ~successes:10 ~trials:10 () in
      Alcotest.(check bool) "degenerate p=1 stays in [0,1]" true (lo >= 0. && hi <= 1.));
    Alcotest.test_case "histogram accessors name the bad bin" `Quick (fun () ->
      let h = Stats.histogram ~bins:4 ~lo:0. ~hi:1. [| 0.5 |] in
      Alcotest.check_raises "density past the end"
        (Invalid_argument "Stats.histogram_density: bin 4 outside [0, 4)") (fun () ->
          ignore (Stats.histogram_density h 4));
      Alcotest.check_raises "negative center"
        (Invalid_argument "Stats.bin_center: bin -1 outside [0, 4)") (fun () ->
          ignore (Stats.bin_center h (-1)));
      Alcotest.(check (float 1e-12)) "valid bin still works" 0.875 (Stats.bin_center h 3));
    Alcotest.test_case "of_moments rebuilds Welford cells bit-for-bit" `Quick (fun () ->
      (* mirror the kernel's unboxed update sequence and check the rebuilt
         accumulator is indistinguishable from feeding Stats.add *)
      let data = [| 1.0; 2.5; -3.0; 7.5; 0.25; 11.0 |] in
      let n = ref 0 and mean = ref 0. and m2 = ref 0. in
      Array.iter
        (fun x ->
          incr n;
          let d = x -. !mean in
          mean := !mean +. (d /. float_of_int !n);
          m2 := !m2 +. (d *. (x -. !mean)))
        data;
      let rebuilt = Stats.of_moments ~count:!n ~mean:!mean ~m2:!m2 in
      let direct = Stats.of_array data in
      Alcotest.(check int) "count" (Stats.count direct) (Stats.count rebuilt);
      Alcotest.(check (float 0.)) "mean" (Stats.mean direct) (Stats.mean rebuilt);
      Alcotest.(check (float 0.)) "variance" (Stats.variance direct) (Stats.variance rebuilt);
      Alcotest.(check int) "count:0 is empty" 0
        (Stats.count (Stats.of_moments ~count:0 ~mean:5. ~m2:3.));
      Alcotest.check_raises "negative count"
        (Invalid_argument "Stats.of_moments: count must be >= 0") (fun () ->
          ignore (Stats.of_moments ~count:(-1) ~mean:0. ~m2:0.)));
  ]

(* ------------------------- Rng fill streams ------------------------- *)

let fill_tests =
  [
    Alcotest.test_case "fill is deterministic and advances the parent by 2" `Quick (fun () ->
      let a = Rng.create ~seed:77 and b = Rng.create ~seed:77 in
      let fa = Rng.fill_of a in
      (* manually advancing the twin by two draws lands on the same state *)
      ignore (Rng.next_int64 b);
      ignore (Rng.next_int64 b);
      Alcotest.(check int64) "parent advanced by exactly two draws" (Rng.next_int64 b)
        (Rng.next_int64 a);
      let fa' = Rng.fill_of (Rng.create ~seed:77) in
      for i = 1 to 100 do
        Alcotest.(check (float 0.))
          (Printf.sprintf "draw %d" i)
          (Rng.fill_float fa') (Rng.fill_float fa)
      done);
    Alcotest.test_case "batch fill equals repeated scalar draws" `Quick (fun () ->
      let scalar = Rng.fill_of (Rng.create ~seed:99) in
      let batch = Rng.fill_of (Rng.create ~seed:99) in
      let buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 64 in
      (* two disjoint ranges: the stream must continue across calls *)
      Rng.fill_float01 batch buf ~pos:0 ~len:40;
      Rng.fill_float01 batch buf ~pos:40 ~len:24;
      for i = 0 to 63 do
        Alcotest.(check (float 0.)) (Printf.sprintf "index %d" i) (Rng.fill_float scalar) buf.{i}
      done);
    Alcotest.test_case "fill range and moments" `Quick (fun () ->
      let f = Rng.fill_of (Rng.create ~seed:4242) in
      let acc = ref Stats.empty in
      let deciles = Array.make 10 0 in
      for _ = 1 to 100_000 do
        let v = Rng.fill_float f in
        if v < 0. || v >= 1. then Alcotest.fail "out of range";
        deciles.(int_of_float (v *. 10.)) <- deciles.(int_of_float (v *. 10.)) + 1;
        acc := Stats.add !acc v
      done;
      Alcotest.(check (float 0.01)) "mean" 0.5 (Stats.mean !acc);
      Alcotest.(check (float 0.01)) "variance" (1. /. 12.) (Stats.variance !acc);
      (* the 62-bit truncation bug left deciles 5-9 empty; pin uniformity *)
      Array.iteri
        (fun i c ->
          Alcotest.(check bool) (Printf.sprintf "decile %d populated" i) true
            (abs (c - 10_000) < 600))
        deciles);
    Alcotest.test_case "fill_float01 rejects bad ranges" `Quick (fun () ->
      let f = Rng.fill_of (Rng.create ~seed:1) in
      let buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 8 in
      List.iter
        (fun (pos, len) ->
          match Rng.fill_float01 f buf ~pos ~len with
          | () -> Alcotest.fail (Printf.sprintf "pos=%d len=%d accepted" pos len)
          | exception Invalid_argument _ -> ())
        [ (-1, 4); (0, 9); (6, 3); (0, -1) ];
      (* len = 0 is a legal no-op *)
      Rng.fill_float01 f buf ~pos:8 ~len:0);
  ]

(* ------------------------- Mc_kernel ------------------------- *)

(* Agreement pins run at fixed seeds, so they are deterministic: the
   Wilson CI checks were verified to hold once and stay reproducible.
   z = 3.29 (99.9%) so the pins survive retuning the fill stream without
   re-rolling seeds. *)
let kernel_tests =
  let in_ci r exact =
    let lo, hi =
      Stats.wilson_interval ~z:3.29 ~successes:r.Mc_kernel.wins ~trials:r.Mc_kernel.samples ()
    in
    lo <= exact && exact <= hi
  in
  [
    Alcotest.test_case "threshold kernel matches the exact closed form" `Quick (fun () ->
      let k = Mc_kernel.make ~n:3 ~delta:1. (Mc_kernel.Threshold (Array.make 3 0.62)) in
      let r = Mc_kernel.run ~rng:(Rng.create ~seed:1001) ~samples:200_000 k in
      let exact = Threshold.winning_probability_sym ~n:3 ~delta:1. 0.62 in
      Alcotest.(check int) "sample count" 200_000 r.Mc_kernel.samples;
      Alcotest.(check bool) "exact value inside the Wilson CI" true (in_ci r exact));
    Alcotest.test_case "oblivious kernel matches the exact closed form" `Quick (fun () ->
      let k = Mc_kernel.make ~n:4 ~delta:(4. /. 3.) (Mc_kernel.Oblivious (Array.make 4 0.5)) in
      let r = Mc_kernel.run ~rng:(Rng.create ~seed:1002) ~samples:200_000 k in
      let exact = Oblivious.winning_probability_uniform ~n:4 ~delta:(4. /. 3.) in
      Alcotest.(check bool) "exact value inside the Wilson CI" true (in_ci r exact));
    Alcotest.test_case "kernel and scalar paths agree through Mc.probability" `Quick (fun () ->
      let tau = Array.make 3 0.62 in
      let k = Mc_kernel.make ~n:3 ~delta:1. (Mc_kernel.Threshold tau) in
      let play rng =
        let l0 = ref 0. and l1 = ref 0. in
        for i = 0 to 2 do
          let x = Rng.float01 rng in
          if x <= tau.(i) then l0 := !l0 +. x else l1 := !l1 +. x
        done;
        !l0 <= 1. && !l1 <= 1.
      in
      let est_k = Mc.probability ~kernel:k ~rng:(Rng.create ~seed:7) ~samples:150_000 play in
      let est_s = Mc.probability ~rng:(Rng.create ~seed:7) ~samples:150_000 play in
      let exact = Threshold.winning_probability_sym ~n:3 ~delta:1. 0.62 in
      Alcotest.(check bool) "kernel agrees with exact" true (Mc.agrees est_k exact);
      Alcotest.(check bool) "scalar agrees with exact" true (Mc.agrees est_s exact);
      Alcotest.(check int) "same sample count" est_s.Mc.samples est_k.Mc.samples);
    Alcotest.test_case "run is bit-identical across domains 1/2/4" `Quick (fun () ->
      let k =
        Mc_kernel.make ~n:3 ~delta:1.
          ~faults:
            (Fault_model.make ~crash:0.1 ~crash_mode:(Fault_model.Default_bin 0) ~noise:0.05
               ~jitter:0.1 ())
          (Mc_kernel.Threshold (Array.make 3 0.62))
      in
      let go j =
        Mc_kernel.run ~hist:(8, 0., 2.) ~loads:true ~domains:j ~rng:(Rng.create ~seed:31)
          ~samples:60_000 k
      in
      let r1 = go 1 in
      List.iter
        (fun j ->
          let r = go j in
          Alcotest.(check int) (Printf.sprintf "wins j=%d" j) r1.Mc_kernel.wins r.Mc_kernel.wins;
          Alcotest.(check int) (Printf.sprintf "over0 j=%d" j) r1.Mc_kernel.over0 r.Mc_kernel.over0;
          Alcotest.(check int) (Printf.sprintf "over1 j=%d" j) r1.Mc_kernel.over1 r.Mc_kernel.over1;
          Alcotest.(check (float 0.))
            (Printf.sprintf "loads mean j=%d" j)
            (Stats.mean r1.Mc_kernel.loads) (Stats.mean r.Mc_kernel.loads);
          Alcotest.(check (float 0.))
            (Printf.sprintf "loads variance j=%d" j)
            (Stats.variance r1.Mc_kernel.loads)
            (Stats.variance r.Mc_kernel.loads);
          match (r1.Mc_kernel.hist, r.Mc_kernel.hist) with
          | Some h1, Some h ->
            Alcotest.(check (array int)) (Printf.sprintf "hist j=%d" j) h1.Stats.counts
              h.Stats.counts;
            Alcotest.(check int) (Printf.sprintf "hist outliers j=%d" j) h1.Stats.outliers
              h.Stats.outliers
          | _ -> Alcotest.fail "histogram missing")
        [ 2; 4 ]);
    Alcotest.test_case "degenerate crash faults have closed forms" `Quick (fun () ->
      (* crash_rate 1 + Drop: no load ever lands, every play wins *)
      let all_drop =
        Mc_kernel.make ~n:3 ~delta:1.
          ~faults:(Fault_model.make ~crash:1. ~crash_mode:Fault_model.Drop ())
          (Mc_kernel.Threshold (Array.make 3 0.62))
      in
      let r = Mc_kernel.run ~rng:(Rng.create ~seed:41) ~samples:10_000 all_drop in
      Alcotest.(check int) "all plays win" 10_000 r.Mc_kernel.wins;
      (* crash_rate 1 + Default_bin 0: bin 0 holds the full Irwin-Hall sum,
         so P(win) = P(X1+X2+X3 <= 1) = 1/6 *)
      let all_bin0 =
        Mc_kernel.make ~n:3 ~delta:1.
          ~faults:(Fault_model.make ~crash:1. ~crash_mode:(Fault_model.Default_bin 0) ())
          (Mc_kernel.Threshold (Array.make 3 0.62))
      in
      let r0 = Mc_kernel.run ~rng:(Rng.create ~seed:42) ~samples:120_000 all_bin0 in
      Alcotest.(check bool) "Irwin-Hall 1/6 inside the Wilson CI" true (in_ci r0 (1. /. 6.)));
    Alcotest.test_case "fused loads and histogram account for every play" `Quick (fun () ->
      let k = Mc_kernel.make ~n:3 ~delta:1. (Mc_kernel.Threshold (Array.make 3 0.62)) in
      let r = Mc_kernel.run ~hist:(8, 0., 2.) ~loads:true ~rng:(Rng.create ~seed:51)
          ~samples:50_000 k
      in
      Alcotest.(check int) "welford count" 50_000 (Stats.count r.Mc_kernel.loads);
      (match r.Mc_kernel.hist with
      | Some h -> Alcotest.(check int) "histogram total" 50_000 h.Stats.total
      | None -> Alcotest.fail "histogram missing");
      (* without the flags the accumulators stay empty/absent *)
      let bare = Mc_kernel.run ~rng:(Rng.create ~seed:51) ~samples:1_000 k in
      Alcotest.(check int) "no welford by default" 0 (Stats.count bare.Mc_kernel.loads);
      Alcotest.(check bool) "no histogram by default" true (bare.Mc_kernel.hist = None));
    Alcotest.test_case "spec and run validation" `Quick (fun () ->
      let tau3 = Array.make 3 0.5 in
      Alcotest.check_raises "n < 1" (Invalid_argument "Mc_kernel.make: n must be >= 1") (fun () ->
        ignore (Mc_kernel.make ~n:0 ~delta:1. (Mc_kernel.Threshold [||])));
      Alcotest.check_raises "delta <= 0"
        (Invalid_argument "Mc_kernel.make: delta must be positive") (fun () ->
          ignore (Mc_kernel.make ~n:3 ~delta:0. (Mc_kernel.Threshold tau3)));
      Alcotest.check_raises "parameter arity"
        (Invalid_argument "Mc_kernel.make: rule carries 2 parameters for n = 3 players")
        (fun () -> ignore (Mc_kernel.make ~n:3 ~delta:1. (Mc_kernel.Threshold (Array.make 2 0.5))));
      Alcotest.check_raises "non-finite parameter"
        (Invalid_argument "Mc_kernel.make: parameter 1 is not finite (nan)") (fun () ->
          ignore (Mc_kernel.make ~n:3 ~delta:1. (Mc_kernel.Threshold [| 0.5; Float.nan; 0.5 |])));
      let k = Mc_kernel.make ~n:3 ~delta:1. (Mc_kernel.Threshold tau3) in
      (* run validates through the sampler it shares with the closure path *)
      Alcotest.check_raises "negative samples"
        (Invalid_argument "Par_fold.sample: samples must be >= 0") (fun () ->
          ignore (Mc_kernel.run ~rng:(Rng.create ~seed:1) ~samples:(-1) k));
      Alcotest.check_raises "domains < 1"
        (Invalid_argument "Par_fold.sample: domains must be >= 1") (fun () ->
          ignore (Mc_kernel.run ~domains:0 ~rng:(Rng.create ~seed:1) ~samples:10 k));
      let z = Mc_kernel.run ~rng:(Rng.create ~seed:1) ~samples:0 k in
      Alcotest.(check int) "samples:0 is empty" 0 z.Mc_kernel.samples;
      Alcotest.(check int) "samples:0 has no wins" 0 z.Mc_kernel.wins);
  ]

(* ------------------- Mc on Par_fold.sample ------------------- *)

(* The determinism contract under test: for a fixed (seed, samples) the
   estimate must not depend on how many domains executed the leases. *)
let mc_par_tests =
  let bernoulli_03 rng = Rng.float01 rng < 0.3 in
  [
    Alcotest.test_case "estimates are bit-identical across -j 1/2/4" `Quick (fun () ->
      let prob j =
        Mc.probability ~domains:j ~rng:(Rng.create ~seed:99) ~samples:30_000 bernoulli_03
      in
      let expect j =
        Mc.expectation ~domains:j ~rng:(Rng.create ~seed:99) ~samples:30_000 Rng.float01
      in
      let p1 = prob 1 and e1 = expect 1 in
      List.iter
        (fun j ->
          Alcotest.(check (float 0.)) (Printf.sprintf "probability j=%d" j) p1.Mc.mean
            (prob j).Mc.mean;
          let ej = expect j in
          Alcotest.(check (float 0.)) (Printf.sprintf "expectation mean j=%d" j) e1.Mc.mean
            ej.Mc.mean;
          Alcotest.(check (float 0.)) (Printf.sprintf "expectation stderr j=%d" j) e1.Mc.stderr
            ej.Mc.stderr)
        [ 2; 4 ];
      Alcotest.(check bool) "estimate is sane" true (Mc.agrees p1 0.3));
    Alcotest.test_case "merged metrics equal the sequential totals" `Quick (fun () ->
      let was = Metrics.enabled () in
      Fun.protect
        ~finally:(fun () -> Metrics.set_enabled was)
        (fun () ->
          Metrics.set_enabled true;
          let read name =
            match Metrics.find name with
            | Some { Metrics.value = Metrics.Counter_v v; _ } -> v
            | _ -> Alcotest.fail (name ^ " not registered")
          in
          Metrics.reset ();
          let est =
            Mc.probability ~domains:3 ~rng:(Rng.create ~seed:11) ~samples:10_000 bernoulli_03
          in
          let par_samples = read "ddm_mc_samples_total" in
          let par_wins = read "ddm_mc_wins_total" in
          Metrics.reset ();
          ignore (Mc.probability ~rng:(Rng.create ~seed:11) ~samples:10_000 bernoulli_03);
          Alcotest.(check int) "samples total" (read "ddm_mc_samples_total") par_samples;
          Alcotest.(check int) "wins consistent with the estimate"
            (int_of_float (Float.round (est.Mc.mean *. 10_000.)))
            par_wins));
    Alcotest.test_case "zero samples and one domain edge cases" `Quick (fun () ->
      (* an empty sample run still runs every lease, each with share 0 *)
      let zero =
        Par_fold.sample ~domains:4 ~rng:(Rng.create ~seed:1) ~samples:0 (fun _ share -> share)
      in
      Alcotest.(check int) "samples:0 runs every lease" Par_fold.leases
        (Array.length zero);
      Alcotest.(check int) "samples:0 shares nothing" 0 (Array.fold_left ( + ) 0 zero);
      (* fewer samples than leases: only some leases draw at all *)
      let tiny =
        Mc.probability ~domains:4 ~rng:(Rng.create ~seed:2) ~samples:3 (fun _ -> true)
      in
      Alcotest.(check (float 0.)) "samples < leases" 1. tiny.Mc.mean;
      Alcotest.(check int) "sample count preserved" 3 tiny.Mc.samples;
      (* more domains than leases: a 3-item fold runs 3 leases, so the
         surplus workers exit without work *)
      Alcotest.(check int) "domains > leases" 3
        (Par_fold.fold ~domains:8 ~items:3
           ~init:(fun () -> 0)
           ~step:(fun acc _ -> acc + 1)
           ~merge:( + ) ());
      Alcotest.check_raises "domains:0 rejected"
        (Invalid_argument "Par_fold.sample: domains must be >= 1") (fun () ->
          ignore
            (Mc.probability ~domains:0 ~rng:(Rng.create ~seed:4) ~samples:10 (fun _ -> true)));
      Alcotest.check_raises "samples:0 still rejected at the Mc level"
        (Invalid_argument "Mc.probability: samples") (fun () ->
          ignore
            (Mc.probability ~domains:1 ~rng:(Rng.create ~seed:4) ~samples:0 (fun _ -> true))));
    Alcotest.test_case "worker exceptions propagate after the join" `Quick (fun () ->
      Alcotest.check_raises "lease exception surfaces" (Failure "boom") (fun () ->
        ignore
          (Par_fold.sample ~domains:3 ~rng:(Rng.create ~seed:6) ~samples:1_000 (fun _ _ ->
               failwith "boom"))));
  ]

(* ------------------- one sampling runner, as a property ------------------- *)

(* Every Monte-Carlo sampler shares Par_fold.sample: for any sample count
   the lease shares partition the budget, and the kernel (plain and
   crash-faulted, with the fused loads and histogram) and the closure
   estimators are bit-identical at every worker count.  The fixed edge
   cases put the budget below, at and just past the lease count, and give
   a lease a share past the kernel's 4096-play chunk. *)
let sampler_props =
  let open QCheck.Gen in
  let gen = pair (int_range 0 20_000) (int_range 0 10_000) in
  let arb =
    QCheck.make gen ~print:(fun (samples, seed) -> Printf.sprintf "samples=%d seed=%d" samples seed)
  in
  let tau = [| 0.6; 0.62; 0.65 |] in
  let plain = Mc_kernel.make ~n:3 ~delta:1. (Mc_kernel.Threshold tau) in
  let faulty =
    Mc_kernel.make
      ~faults:
        (Fault_model.make ~crash:0.1 ~crash_mode:(Fault_model.Default_bin 0) ~noise:0.05
           ~jitter:0.1 ())
      ~n:3 ~delta:1. (Mc_kernel.Threshold tau)
  in
  let same_at_every_j run = List.for_all (fun j -> compare (run 1) (run j) = 0) [ 2; 3 ] in
  let bernoulli rng = Rng.float01 rng < 0.3 in
  let holds (samples, seed) =
    let rng () = Rng.create ~seed in
    let shares j = Par_fold.sample ~domains:j ~rng:(rng ()) ~samples (fun _ s -> s) in
    let s = shares 1 in
    let kernel spec j =
      Mc_kernel.run ~hist:(10, 0., 2.) ~loads:true ~domains:j ~rng:(rng ()) ~samples spec
    in
    Array.length s = Par_fold.leases
    && Array.fold_left ( + ) 0 s = samples
    && Array.fold_left max 0 s - Array.fold_left min max_int s <= 1
    && same_at_every_j shares
    && (kernel plain 1).Mc_kernel.samples = samples
    && same_at_every_j (kernel plain)
    && same_at_every_j (kernel faulty)
    && (samples = 0
       || same_at_every_j (fun j ->
              Mc.probability ~domains:j ~rng:(rng ()) ~samples bernoulli)
          && same_at_every_j (fun j ->
                 Mc.expectation ~domains:j ~rng:(rng ()) ~samples Rng.float01))
  in
  [
    Alcotest.test_case "edge cases: empty, sparse and long-lease runs" `Quick (fun () ->
      List.iter
        (fun samples ->
          Alcotest.(check bool) (Printf.sprintf "samples=%d" samples) true (holds (samples, 7)))
        [ 0; 3; 63; 64; 65; 20_000; Par_fold.leases * 4097 ]);
    qtest ~count:60 "shares partition and every -j agrees" arb holds;
  ]

(* ------------------------- Par_fold ------------------------- *)

(* The exact-path contract: for a fixed item count the fold must not
   depend on how many domains executed the leases — including for
   floating-point sums, whose grouping is a function of the partition. *)
let par_fold_tests =
  (* deliberately awkward per-index cost and value so regrouping would show *)
  let f k = sin (float_of_int k) /. (1. +. (float_of_int k /. 7.)) in
  [
    Alcotest.test_case "sums are bit-identical across domains 1/2/4/8" `Quick (fun () ->
      let s j = Par_fold.sum ~domains:j ~items:10_001 f in
      let s1 = s 1 in
      List.iter
        (fun j -> Alcotest.(check (float 0.)) (Printf.sprintf "domains=%d" j) s1 (s j))
        [ 2; 4; 8 ];
      (* the lease partition regroups the sequential sum, moving it by
         roundoff at most *)
      let seq = ref 0. in
      for k = 0 to 10_000 do
        seq := !seq +. f k
      done;
      Alcotest.(check bool)
        "default leases stay within roundoff of sequential" true
        (Float.abs (s1 -. !seq) < 1e-9));
    Alcotest.test_case "lease count > work items: surplus leases fold init" `Quick (fun () ->
      let counted = Atomic.make 0 in
      let total =
        Par_fold.fold ~domains:4 ~items:5
          ~init:(fun () -> 0)
          ~step:(fun acc k ->
            Atomic.incr counted;
            acc + k)
          ~merge:( + ) ()
      in
      Alcotest.(check int) "sum 0..4" 10 total;
      Alcotest.(check int) "each index visited exactly once" 5 (Atomic.get counted));
    Alcotest.test_case "zero items folds to init" `Quick (fun () ->
      Alcotest.(check int) "items:0" 0
        (Par_fold.fold ~domains:4 ~items:0
           ~init:(fun () -> 0)
           ~step:(fun _ _ -> Alcotest.fail "step ran on empty fold")
           ~merge:( + ) ());
      Alcotest.(check (float 0.)) "sum over nothing" 0. (Par_fold.sum ~domains:2 ~items:0 f));
    Alcotest.test_case "run_leases returns results in lease order" `Quick (fun () ->
      let r = Par_fold.run_leases ~domains:4 ~leases:9 (fun i -> i * i) in
      Alcotest.(check (array int)) "lease order" (Array.init 9 (fun i -> i * i)) r;
      Alcotest.(check (array int)) "zero leases" [||]
        (Par_fold.run_leases ~domains:2 ~leases:0 (fun i -> i)));
    Alcotest.test_case "argument validation" `Quick (fun () ->
      Alcotest.check_raises "domains:0 rejected"
        (Invalid_argument "Par_fold.fold: domains must be >= 1") (fun () ->
          ignore (Par_fold.sum ~domains:0 ~items:3 f));
      Alcotest.check_raises "negative items rejected"
        (Invalid_argument "Par_fold.fold: items must be >= 0") (fun () ->
          ignore (Par_fold.sum ~domains:1 ~items:(-1) f)));
    Alcotest.test_case "worker exceptions propagate after the join" `Quick (fun () ->
      Alcotest.check_raises "step exception surfaces" (Failure "boom") (fun () ->
        ignore
          (Par_fold.fold ~domains:3 ~items:1_000
             ~init:(fun () -> 0)
             ~step:(fun acc k -> if k = 500 then failwith "boom" else acc + 1)
             ~merge:( + ) ()));
      (* the abort flag parks the pool: a raising lease must not prevent
         the join, and the pool is reusable afterwards *)
      Alcotest.(check (float 0.)) "pool usable after a failed fold"
        (Par_fold.sum ~domains:3 ~items:100 f)
        (Par_fold.sum ~domains:1 ~items:100 f));
  ]

let () =
  Alcotest.run "prob"
    [
      ("rng", rng_tests);
      ("uniform-sum", uniform_sum_tests);
      ("uniform-sum-prop", uniform_sum_props);
      ("stats-mc", stats_tests);
      ("stats-edge", stats_edge_tests);
      ("rng-fill", fill_tests);
      ("mc-kernel", kernel_tests);
      ("mc-par", mc_par_tests);
      ("sampler-prop", sampler_props);
      ("par-fold", par_fold_tests);
    ]
