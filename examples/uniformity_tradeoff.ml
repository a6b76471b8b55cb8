(* The knowledge-vs-uniformity trade-off (paper Sections 4-5):

   - the optimal oblivious algorithm is uniform: alpha = 1/2 for every n;
   - the optimal single-threshold algorithm is non-uniform: beta* moves
     with n;
   - non-obliviousness usually pays (but see the n = 4 inversion, a finding
     of this reproduction recorded in EXPERIMENTS.md).

   Run with: dune exec examples/uniformity_tradeoff.exe [-- max_n] *)

let () =
  let max_n = try int_of_string Sys.argv.(1) with Invalid_argument _ | Failure _ -> 8 in
  Printf.printf
    "%-4s %-8s | %-12s %-12s | %-12s %-12s | %-8s\n" "n" "delta" "P_oblivious" "alpha*"
    "P_threshold" "beta*" "winner";
  print_endline (String.make 84 '-');
  for n = 2 to max_n do
    let delta = Rat.of_ints n 3 in
    (* oblivious: certified via the symmetric polynomial's stationary point *)
    let p_obl = Oblivious.Q.winning_probability_uniform ~n ~delta in
    let sp = Oblivious.symmetric_poly ~n ~delta in
    let alpha_star =
      match
        List.filter
          (fun r -> r > 1e-9 && r < 1. -. 1e-9)
          (Roots.root_floats (Poly.derivative sp) ~lo:Rat.zero ~hi:Rat.one)
      with
      | [ a ] -> a
      | _ -> nan
    in
    (* threshold: certified via the symbolic piecewise pipeline *)
    let res = Symbolic.optimal_sym_threshold ~n ~delta () in
    let p_thr = res.Piecewise.value in
    Printf.printf "%-4d %-8s | %-12.8f %-12.6f | %-12.8f %-12.8f | %s\n" n
      (Rat.to_string delta) (Rat.to_float p_obl) alpha_star (Rat.to_float p_thr)
      (Rat.to_float res.Piecewise.argmax)
      (if Rat.compare p_thr p_obl > 0 then "threshold" else "OBLIVIOUS");
  done;
  print_newline ();
  print_endline "alpha* is 1/2 on every row: the optimal oblivious algorithm is uniform";
  print_endline "(players need not know n). beta* varies with n: optimal non-oblivious";
  print_endline "algorithms are non-uniform. Note the n = 4 row, where the fair coin beats";
  print_endline "the best common threshold (likewise n = 7) - inversions this reproduction documents."
