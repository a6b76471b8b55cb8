(* Tests for combinatorial primitives. *)

module B = Bigint
module C = Combinat

let bi = Alcotest.testable B.pp B.equal

let qtest ?(count = 300) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let unit_tests =
  [
    Alcotest.test_case "factorial landmarks" `Quick (fun () ->
      Alcotest.check bi "0!" B.one (C.factorial 0);
      Alcotest.check bi "1!" B.one (C.factorial 1);
      Alcotest.check bi "5!" (B.of_int 120) (C.factorial 5);
      Alcotest.(check string) "25!" "15511210043330985984000000" (B.to_string (C.factorial 25));
      (* memo growth: ask big first, small after *)
      ignore (C.factorial 200);
      Alcotest.check bi "12!" (B.of_int 479001600) (C.factorial 12));
    Alcotest.test_case "factorial negative" `Quick (fun () ->
      Alcotest.check_raises "neg" (Invalid_argument "Combinat.factorial: negative") (fun () ->
        ignore (C.factorial (-1))));
    Alcotest.test_case "binomial landmarks" `Quick (fun () ->
      Alcotest.check bi "10C5" (B.of_int 252) (C.binomial 10 5);
      Alcotest.check bi "nC0" B.one (C.binomial 7 0);
      Alcotest.check bi "nCn" B.one (C.binomial 7 7);
      Alcotest.check bi "out of range low" B.zero (C.binomial 7 (-1));
      Alcotest.check bi "out of range high" B.zero (C.binomial 7 8);
      Alcotest.(check string) "60C30" "118264581564861424" (B.to_string (C.binomial 60 30)));
    Alcotest.test_case "falling factorial" `Quick (fun () ->
      Alcotest.check bi "5_3" (B.of_int 60) (C.falling_factorial 5 3);
      Alcotest.check bi "n_0" B.one (C.falling_factorial 9 0));
    Alcotest.test_case "popcount" `Quick (fun () ->
      Alcotest.(check int) "0" 0 (C.popcount 0);
      Alcotest.(check int) "255" 8 (C.popcount 255);
      Alcotest.(check int) "0b1010101" 4 (C.popcount 0b1010101));
    Alcotest.test_case "int_pow" `Quick (fun () ->
      Alcotest.(check (float 0.)) "2^10" 1024. (C.int_pow 2. 10);
      Alcotest.(check (float 0.)) "x^0" 1. (C.int_pow 3.7 0);
      Alcotest.(check (float 1e-12)) "0.5^3" 0.125 (C.int_pow 0.5 3));
    Alcotest.test_case "fold_subsets enumerates 2^n masks" `Quick (fun () ->
      let count = C.fold_subsets ~n:10 ~init:0 ~f:(fun acc _ -> acc + 1) in
      Alcotest.(check int) "count" 1024 count);
    Alcotest.test_case "fold_subset_sums totals" `Quick (fun () ->
      (* Each element appears in half the subsets. *)
      let arr = [| 1.; 2.; 4.; 8.; 16. |] in
      let fold f init = C.fold_subset_sums_gen ~add:( +. ) ~sub:( -. ) ~zero:0. arr ~init ~f in
      let total = fold (fun acc ~size:_ ~sum -> acc +. sum) 0. in
      Alcotest.(check (float 1e-9)) "sum over subsets" (16. *. 31.) total;
      let visits = fold (fun acc ~size:_ ~sum:_ -> acc + 1) 0 in
      Alcotest.(check int) "visits" 32 visits);
  ]

let property_tests =
  [
    qtest "binomial symmetry" (QCheck.pair (QCheck.int_range 0 40) (QCheck.int_range 0 40))
      (fun (n, k) ->
        QCheck.assume (k <= n);
        B.equal (C.binomial n k) (C.binomial n (n - k)));
    qtest "Pascal rule" (QCheck.pair (QCheck.int_range 1 40) (QCheck.int_range 0 40))
      (fun (n, k) ->
        QCheck.assume (k <= n);
        B.equal (C.binomial n k)
          (B.add (C.binomial (n - 1) k) (C.binomial (n - 1) (k - 1))));
    qtest "binomial row sums to 2^n" (QCheck.int_range 0 60) (fun n ->
      let sum = List.fold_left B.add B.zero (List.init (n + 1) (fun k -> C.binomial n k)) in
      B.equal sum (B.pow B.two n));
    qtest "factorial ratio is falling factorial"
      (QCheck.pair (QCheck.int_range 0 30) (QCheck.int_range 0 30))
      (fun (n, k) ->
        QCheck.assume (k <= n);
        B.equal (C.falling_factorial n k) (B.div (C.factorial n) (C.factorial (n - k))));
    qtest "subset size histogram matches binomials" (QCheck.int_range 0 12) (fun n ->
      let counts = Array.make (n + 1) 0 in
      C.fold_subset_sums_gen ~add:( +. ) ~sub:( -. ) ~zero:0. (Array.make n 1.) ~init:()
        ~f:(fun () ~size ~sum:_ ->
        counts.(size) <- counts.(size) + 1);
      Array.for_all Fun.id
        (Array.mapi (fun k c -> B.equal (B.of_int c) (C.binomial n k)) counts));
    qtest "gray-code subset sums are consistent (rational)" (QCheck.int_range 1 10) (fun n ->
      (* Exact check: the multiset of (size, sum) pairs matches direct
         enumeration over masks. *)
      let arr = Array.init n (fun i -> Rat.of_ints 1 (i + 1)) in
      let via_gray =
        C.fold_subset_sums_gen ~add:Rat.add ~sub:Rat.sub ~zero:Rat.zero arr ~init:[]
          ~f:(fun acc ~size ~sum -> (size, sum) :: acc)
      in
      let via_masks =
        C.fold_subsets ~n ~init:[] ~f:(fun acc mask ->
          let sum = ref Rat.zero and size = ref 0 in
          for i = 0 to n - 1 do
            if mask land (1 lsl i) <> 0 then begin
              sum := Rat.add !sum arr.(i);
              incr size
            end
          done;
          (!size, !sum) :: acc)
      in
      let norm l = List.sort compare (List.map (fun (s, r) -> (s, Rat.to_string r)) l) in
      norm via_gray = norm via_masks);
    qtest "int_pow agrees with **"
      (QCheck.pair (QCheck.float_range 0.1 3.) (QCheck.int_range 0 20))
      (fun (x, k) ->
        let a = C.int_pow x k and b = x ** float_of_int k in
        abs_float (a -. b) <= 1e-9 *. abs_float b);
    qtest "Field.Float subset walk is the generic walk, bit for bit"
      QCheck.(
        triple
          (list_of_size Gen.(int_range 0 12) (float_range 0. 1.5))
          (float_range (-0.5) 12.) (int_range 0 14))
      (fun (w, t, k) ->
        let w = Array.of_list w in
        let generic =
          C.fold_subset_sums_gen ~add:( +. ) ~sub:( -. ) ~zero:0. w ~init:0.
            ~f:(fun acc ~size ~sum ->
              if sum < t then begin
                let term = C.int_pow (t -. sum) k in
                if size land 1 = 0 then acc +. term else acc -. term
              end
              else acc)
        in
        Int64.equal (Int64.bits_of_float generic)
          (Int64.bits_of_float (Field.Float.subset_power_sum w t k)));
  ]

let () = Alcotest.run "combinat" [ ("unit", unit_tests); ("property", property_tests) ]
