(* The value of information (Papadimitriou-Yannakakis, PODC 1991; this
   paper's Section 6 extension direction): how the best achievable winning
   probability grows with the communication pattern, for n = 3, delta = 1.

   For each pattern we numerically optimize a parametric protocol family
   with the distributed-simulation engine's deterministic grid integrator.

   Run with: dune exec examples/communication_value.exe *)

let n = 3
let delta = 1.

let optimize ?(points = 72) pattern family x0 bounds =
  Engine.optimize_family ~points ~delta pattern ~family ~x0 ~bounds ()

(* The midpoint grid is fine inside the optimizer but biased near decision
   discontinuities; final numbers are re-scored by Monte-Carlo. *)
let score pattern protocol =
  let rng = Rng.create ~seed:99 in
  (Engine.win_probability_mc ~rng ~samples:1_000_000 ~delta pattern protocol).Mc.mean

let () =
  Printf.printf "=== The value of communication (n = %d, delta = %.0f) ===\n\n" n delta;
  Printf.printf "%-22s %-10s %-12s %s\n" "pattern" "messages" "P(win)" "protocol found";
  print_endline (String.make 78 '-');

  (* 0 messages: the paper's settled case; report the certified optimum. *)
  let res = Symbolic.optimal_sym_threshold ~n:3 ~delta:Rat.one () in
  Printf.printf "%-22s %-10d %-12.5f common threshold beta* = %.4f (certified)\n" "none" 0
    (Rat.to_float res.Piecewise.value)
    (Rat.to_float res.Piecewise.argmax);

  (* 2 messages: one player broadcasts its input. Asymmetric family: the
     source plays a threshold; listener 1 weighs the broadcast against its
     own input; listener 2 leans the other way. *)
  let bcast = Comm_pattern.broadcast ~n ~source:0 in
  let x, _ =
    optimize bcast Py91.broadcast_family [| 1.0; 1.0; 1.0; -0.5; 0.3 |]
      [| (0., 1.); (-2., 2.); (-1., 2.); (-2., 2.); (-1., 2.) |]
  in
  Printf.printf "%-22s %-10d %-12.5f t0=%.3f w1=%.3f t1=%.3f w2=%.3f t2=%.3f\n" "broadcast(0)"
    (Comm_pattern.message_count bcast)
    (score bcast (Py91.broadcast_family x))
    x.(0) x.(1) x.(2) x.(3) x.(4);

  (* 3 messages: chain 0 -> 1 -> 2 (player 2 sees both). *)
  let chain = Comm_pattern.chain ~n in
  let family p =
    Dist_protocol.make ~name:"chain-family" (fun v ->
      match v.Dist_protocol.me with
      | 0 -> if v.Dist_protocol.own <= p.(0) then 1. else 0.
      | 1 -> (
        match Dist_protocol.view_input v 0 with
        | Some x0 -> if v.Dist_protocol.own +. (p.(1) *. x0) <= p.(2) then 1. else 0.
        | None -> 0.)
      | _ ->
        (* player 2 reconstructs both loads exactly and joins the lighter
           feasible bin, with a parametric tie-break *)
        let x0 = Option.value ~default:0. (Dist_protocol.view_input v 0) in
        let x1 = Option.value ~default:0. (Dist_protocol.view_input v 1) in
        let bin0_load = (if x0 <= p.(0) then x0 else 0.) +. (if x1 +. (p.(1) *. x0) <= p.(2) then x1 else 0.) in
        let bin1_load = x0 +. x1 -. bin0_load in
        let fits0 = bin0_load +. v.Dist_protocol.own <= delta in
        let fits1 = bin1_load +. v.Dist_protocol.own <= delta in
        if fits0 && ((not fits1) || bin0_load <= bin1_load +. p.(3)) then 1.
        else if fits1 then 0.
        else if bin0_load <= bin1_load then 1.
        else 0.)
  in
  let x, _ =
    optimize chain family [| 0.9; 1.0; 1.0; 0. |]
      [| (0., 1.); (-2., 2.); (-1., 2.); (-1., 1.) |]
  in
  Printf.printf "%-22s %-10d %-12.5f t0=%.3f w1=%.3f t1=%.3f tie=%.3f\n" "chain"
    (Comm_pattern.message_count chain)
    (score chain (family x))
    x.(0) x.(1) x.(2) x.(3);

  (* Full information: every player sees everything. With full information
     the first-fit-decreasing-style rule solves the instance whenever any
     partition works; we evaluate that rule directly. *)
  let full = Comm_pattern.full ~n in
  Printf.printf "%-22s %-10d %-12.5f greedy largest-first partition (= feasibility bound 3/4)\n"
    "full" (Comm_pattern.message_count full) (score full Py91.greedy_partition);

  print_newline ();
  print_endline "More communication -> higher winning probability, at growing message cost:";
  print_endline "exactly the trade-off Papadimitriou-Yannakakis quantified for n = 3.";

  (* Bonus: an information-radius sweep on a ring of 6 players. Every player
     ranks the inputs it can see (its own plus those within k hops) and takes
     the bin given by its rank's parity - a rank-balancing heuristic whose
     quality grows with the radius. *)
  let n6 = 6 and delta6 = 2. in
  let rank_balancer =
    Dist_protocol.make ~name:"rank-balancer" (fun v ->
      let visible =
        List.sort
          (fun (i, a) (j, b) -> match compare b a with 0 -> compare i j | c -> c)
          ((v.Dist_protocol.me, v.Dist_protocol.own) :: v.Dist_protocol.others)
      in
      let rec rank_of idx = function
        | (i, _) :: rest -> if i = v.Dist_protocol.me then idx else rank_of (idx + 1) rest
        | [] -> assert false
      in
      if rank_of 0 visible mod 2 = 0 then 1. else 0.)
  in
  Printf.printf "\nInformation radius on a ring (n = %d, delta = %.0f, rank-balancing rule):\n"
    n6 delta6;
  Printf.printf "%-8s %-10s %s\n" "k-hops" "messages" "P(win)";
  List.iter
    (fun k ->
      let pat = Comm_pattern.k_hop ~n:n6 ~k in
      let rng = Rng.create ~seed:66 in
      let est = Engine.win_probability_mc ~rng ~samples:300_000 ~delta:delta6 pat rank_balancer in
      Printf.printf "%-8d %-10d %.5f\n" k (Comm_pattern.message_count pat) est.Mc.mean)
    [ 0; 1; 2; 3 ];
  Printf.printf "(k = 0: everyone ranks itself first and floods bin 1-of-parity;\n";
  Printf.printf " k = 3 = full information: near-perfect alternating balance.)\n"
