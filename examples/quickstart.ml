(* Quickstart: solve the Papadimitriou-Yannakakis instance (n = 3, delta = 1)
   end to end.

   Run with: dune exec examples/quickstart.exe *)

let () =
  print_endline "=== Distributed decision-making, no communication ===";
  print_endline "Instance: n = 3 players, two bins of capacity delta = 1\n";

  (* 1. The optimal oblivious algorithm (Theorem 4.3): fair coins. *)
  let p_coin = Oblivious.Q.winning_probability_uniform ~n:3 ~delta:Rat.one in
  Printf.printf "Oblivious optimum (alpha = 1/2):      P = %s = %.6f\n"
    (Rat.to_string p_coin) (Rat.to_float p_coin);

  (* 2. The optimal single-threshold algorithm (Section 5.2.1), certified
     symbolically: build the exact piecewise polynomial beta |-> P(beta) and
     maximize it with Sturm-sequence root isolation. *)
  let curve = Symbolic.sym_threshold_curve ~n:3 ~delta:Rat.one in
  print_endline "\nExact winning-probability curve for common threshold beta:";
  List.iter
    (fun (piece : Piecewise.piece) ->
      Printf.printf "  beta in [%s, %s]:  P(beta) = %s\n" (Rat.to_string piece.lo)
        (Rat.to_string piece.hi)
        (Poly.to_string ~var:"beta" piece.poly))
    (Piecewise.pieces curve);

  let res = Symbolic.optimal_sym_threshold ~n:3 ~delta:Rat.one () in
  Printf.printf "\nThreshold optimum: beta* = %.10f   (paper: 1 - sqrt(1/7) = %.10f)\n"
    (Rat.to_float res.Piecewise.argmax)
    (1. -. sqrt (1. /. 7.));
  Printf.printf "                   P*    = %.10f   (paper: 0.545)\n"
    (Rat.to_float res.Piecewise.value);
  List.iter
    (fun (s : Piecewise.stationary) ->
      Printf.printf "Optimality condition at the optimum:  %s = 0\n"
        (Poly.to_string ~var:"beta" (Symbolic.monic_condition s.condition)))
    (List.filter
       (fun (s : Piecewise.stationary) ->
         Rat.compare (Rat.mid s.location.Roots.lo s.location.Roots.hi) Rat.half > 0)
       res.stationaries);

  (* 3. Cross-check by simulating the distributed system. *)
  let rng = Rng.create ~seed:1 in
  let est =
    Mc_eval.winning_probability ~rng ~samples:500_000 Model.py91
      (Model.Single_threshold (Array.make 3 (Rat.to_float res.Piecewise.argmax)))
  in
  Printf.printf "\nMonte-Carlo check (500k plays):       %s\n"
    (Format.asprintf "%a" Mc.pp_estimate est);
  Printf.printf "Closed form inside the 95%% interval:  %b\n"
    (Mc.agrees est (Rat.to_float res.Piecewise.value));

  (* 4. The trade-off the paper is about. *)
  Printf.printf "\nKnowledge beats obliviousness here: %.4f > %.4f (gap %.4f)\n"
    (Rat.to_float res.Piecewise.value) (Rat.to_float p_coin)
    (Rat.to_float (Rat.sub res.Piecewise.value p_coin))
