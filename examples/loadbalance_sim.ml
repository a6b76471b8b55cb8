(* Run the load-balancing game as an actual distributed execution: n agents,
   a communication pattern, local decision rules, overflow accounting.

   Compares four protocols on the same instance and shows per-protocol
   statistics including where the overflows happen.

   Run with: dune exec examples/loadbalance_sim.exe [-- n delta samples] *)

let () =
  let n = try int_of_string Sys.argv.(1) with Invalid_argument _ | Failure _ -> 3 in
  let delta = try float_of_string Sys.argv.(2) with Invalid_argument _ | Failure _ -> 1. in
  let samples = try int_of_string Sys.argv.(3) with Invalid_argument _ | Failure _ -> 300_000 in
  Printf.printf "=== Distributed load balancing: n = %d, delta = %.3f, %d plays ===\n\n" n delta
    samples;

  let none = Comm_pattern.none ~n in
  let bcast = Comm_pattern.broadcast ~n ~source:0 in

  (* Protocols under test. *)
  let beta_star, _ = Threshold.optimum_sym ~n ~delta () in
  let listen =
    (* source announces; player 1 joins it when it fits; everyone else
       balances on a plain threshold *)
    Dist_protocol.make ~name:"broadcast-listen" (fun v ->
      match v.Dist_protocol.me with
      | 0 -> 1.
      | 1 -> (
        match Dist_protocol.view_input v 0 with
        | Some x0 when x0 +. v.Dist_protocol.own <= delta -> 1.
        | _ -> 0.)
      | _ -> 0.)
  in
  let contenders =
    [
      (none, Dist_protocol.fair_coin ~n);
      (none, Dist_protocol.common_threshold ~n 0.5);
      (none, Dist_protocol.common_threshold ~n beta_star);
      (bcast, listen);
    ]
  in

  Printf.printf "%-28s %-10s %10s %12s %12s %12s\n" "protocol" "pattern" "P(win)" "overflow0"
    "overflow1" "both";
  List.iter
    (fun (pattern, protocol) ->
      let rng = Rng.create ~seed:7 in
      let wins = ref 0 and over0 = ref 0 and over1 = ref 0 and both = ref 0 in
      for _ = 1 to samples do
        let o = Engine.run_once rng ~delta pattern protocol in
        if o.Engine.win then incr wins;
        let o0 = o.Engine.load0 > delta and o1 = o.Engine.load1 > delta in
        if o0 then incr over0;
        if o1 then incr over1;
        if o0 && o1 then incr both
      done;
      let f c = float_of_int c /. float_of_int samples in
      Printf.printf "%-28s %-10s %10.5f %12.5f %12.5f %12.5f\n"
        (Dist_protocol.name protocol)
        (if Comm_pattern.message_count pattern = 0 then "none" else "broadcast")
        (f !wins) (f !over0) (f !over1) (f !both))
    contenders;

  (* Closed-form anchors for the no-communication rows. *)
  Printf.printf "\nClosed forms: fair coin %.5f | threshold(%.4f) %.5f\n"
    (Oblivious.winning_probability_uniform ~n ~delta)
    beta_star
    (Threshold.winning_probability_sym ~n ~delta beta_star)
