(* Lemma 2.5 gives a closed-form density for the sum of independent,
   non-identically distributed uniform random variables - answering a
   research problem posed by G.-C. Rota. This example plots the formula
   against a simulated histogram.

   Run with: dune exec examples/rota_density.exe [-- w1 w2 ...] *)

let () =
  let widths =
    if Array.length Sys.argv > 1 then
      Array.of_list (List.map float_of_string (List.tl (Array.to_list Sys.argv)))
    else [| 0.25; 0.5; 1.0 |]
  in
  let total = Array.fold_left ( +. ) 0. widths in
  Printf.printf "Density of sum of U[0,w] for w in [%s] (support [0, %.2f])\n\n"
    (String.concat "; " (List.map string_of_float (Array.to_list widths)))
    total;

  (* simulate *)
  let rng = Rng.create ~seed:271828 in
  let samples =
    Array.init 400_000 (fun _ ->
      Array.fold_left (fun acc w -> acc +. (Rng.float01 rng *. w)) 0. widths)
  in
  let bins = 40 in
  let h = Stats.histogram ~bins ~lo:0. ~hi:total samples in

  (* compare *)
  let max_density =
    List.fold_left Float.max 0.
      (List.init bins (fun i -> Uniform_sum.pdf ~widths (Stats.bin_center h i)))
  in
  Printf.printf "%8s %10s %10s   (# = formula, o = simulation)\n" "t" "formula" "simulated";
  let bar_width = 46 in
  for i = 0 to bins - 1 do
    let t = Stats.bin_center h i in
    let thy = Uniform_sum.pdf ~widths t in
    let emp = Stats.histogram_density h i in
    let pos v = int_of_float (v /. max_density *. float_of_int (bar_width - 1)) in
    let line = Bytes.make bar_width ' ' in
    Bytes.set line (max 0 (min (bar_width - 1) (pos emp))) 'o';
    Bytes.set line (max 0 (min (bar_width - 1) (pos thy))) '#';
    Printf.printf "%8.3f %10.5f %10.5f   |%s\n" t thy emp (Bytes.to_string line)
  done;

  (* the exact rational value at the midpoint, for good measure *)
  let mid = Rat.of_float (total /. 2.) in
  let exact = Uniform_sum.Q.pdf ~widths:(Array.map Rat.of_float widths) mid in
  Printf.printf "\nExact density at t = %.3f: %s = %.8f\n" (total /. 2.) (Rat.to_string exact)
    (Rat.to_float exact)
