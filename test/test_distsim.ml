(* Tests for the distributed-simulation substrate: communication patterns,
   protocols, and the execution engine. *)

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

(* ------------------------- Comm_pattern ------------------------- *)

let pattern_tests =
  [
    Alcotest.test_case "none has no edges" `Quick (fun () ->
      let p = Comm_pattern.none ~n:5 in
      Alcotest.(check int) "messages" 0 (Comm_pattern.message_count p);
      for i = 0 to 4 do
        Alcotest.(check (list int)) "sees nothing" [] (Comm_pattern.sees p i)
      done);
    Alcotest.test_case "broadcast edges" `Quick (fun () ->
      let p = Comm_pattern.broadcast ~n:4 ~source:1 in
      Alcotest.(check int) "messages" 3 (Comm_pattern.message_count p);
      Alcotest.(check (list int)) "viewer 0" [ 1 ] (Comm_pattern.sees p 0);
      Alcotest.(check (list int)) "source sees nothing" [] (Comm_pattern.sees p 1);
      Alcotest.(check bool) "observes" true (Comm_pattern.observes p ~viewer:3 ~source:1);
      Alcotest.(check bool) "not observes" false (Comm_pattern.observes p ~viewer:1 ~source:3));
    Alcotest.test_case "chain structure" `Quick (fun () ->
      let p = Comm_pattern.chain ~n:4 in
      Alcotest.(check (list int)) "player 0" [] (Comm_pattern.sees p 0);
      Alcotest.(check (list int)) "player 3" [ 0; 1; 2 ] (Comm_pattern.sees p 3);
      Alcotest.(check int) "messages" 6 (Comm_pattern.message_count p));
    Alcotest.test_case "full information" `Quick (fun () ->
      let p = Comm_pattern.full ~n:4 in
      Alcotest.(check int) "messages" 12 (Comm_pattern.message_count p));
    Alcotest.test_case "ring" `Quick (fun () ->
      let p = Comm_pattern.ring ~n:3 in
      Alcotest.(check (list int)) "player 0 sees last" [ 2 ] (Comm_pattern.sees p 0);
      Alcotest.(check (list int)) "player 1" [ 0 ] (Comm_pattern.sees p 1);
      Alcotest.(check int) "messages" 3 (Comm_pattern.message_count p);
      let p1 = Comm_pattern.ring ~n:1 in
      Alcotest.(check (list int)) "singleton ring" [] (Comm_pattern.sees p1 0));
    Alcotest.test_case "k_hop interpolates none..full" `Quick (fun () ->
      let p0 = Comm_pattern.k_hop ~n:6 ~k:0 in
      Alcotest.(check int) "k=0 is none" 0 (Comm_pattern.message_count p0);
      let p1 = Comm_pattern.k_hop ~n:6 ~k:1 in
      Alcotest.(check (list int)) "k=1 both neighbours" [ 1; 5 ] (Comm_pattern.sees p1 0);
      let p3 = Comm_pattern.k_hop ~n:6 ~k:3 in
      Alcotest.(check int) "k=n/2 is full" (6 * 5) (Comm_pattern.message_count p3);
      let phuge = Comm_pattern.k_hop ~n:5 ~k:100 in
      Alcotest.(check int) "k beyond n is full" (5 * 4) (Comm_pattern.message_count phuge));
    Alcotest.test_case "make sanitizes" `Quick (fun () ->
      let p = Comm_pattern.make ~n:3 (fun i -> [ i; -1; 7; 2; 2 ]) in
      Alcotest.(check (list int)) "player 0" [ 2 ] (Comm_pattern.sees p 0);
      Alcotest.(check (list int)) "player 2 drops self" [] (Comm_pattern.sees p 2));
    Alcotest.test_case "edges consistent with message_count" `Quick (fun () ->
      let p = Comm_pattern.chain ~n:5 in
      Alcotest.(check int) "len" (Comm_pattern.message_count p)
        (List.length (Comm_pattern.edges p)));
  ]

(* ------------------------- Dist_protocol ------------------------- *)

let protocol_tests =
  [
    Alcotest.test_case "view_input lookup" `Quick (fun () ->
      let v = { Dist_protocol.me = 1; own = 0.5; others = [ (0, 0.2); (2, 0.9) ] } in
      Alcotest.(check (option (float 0.))) "own" (Some 0.5) (Dist_protocol.view_input v 1);
      Alcotest.(check (option (float 0.))) "other" (Some 0.9) (Dist_protocol.view_input v 2);
      Alcotest.(check (option (float 0.))) "hidden" None (Dist_protocol.view_input v 3));
    Alcotest.test_case "oblivious ignores view" `Quick (fun () ->
      let p = Dist_protocol.oblivious [| 0.3; 0.7 |] in
      let v1 = { Dist_protocol.me = 0; own = 0.1; others = [] } in
      let v2 = { Dist_protocol.me = 0; own = 0.9; others = [ (1, 0.4) ] } in
      Alcotest.(check (float 0.)) "same" (Dist_protocol.decide p v1) (Dist_protocol.decide p v2);
      Alcotest.(check (float 0.)) "alpha" 0.3 (Dist_protocol.decide p v1);
      Alcotest.(check bool) "randomized" false (Dist_protocol.is_deterministic p));
    Alcotest.test_case "single threshold decisions" `Quick (fun () ->
      let p = Dist_protocol.single_threshold [| 0.5 |] in
      let at x = Dist_protocol.decide p { Dist_protocol.me = 0; own = x; others = [] } in
      Alcotest.(check (float 0.)) "below" 1. (at 0.4);
      Alcotest.(check (float 0.)) "above" 0. (at 0.6);
      Alcotest.(check bool) "deterministic" true (Dist_protocol.is_deterministic p));
    Alcotest.test_case "weighted threshold uses visible inputs only" `Quick (fun () ->
      let p =
        Dist_protocol.weighted_threshold
          ~weights:[| [| 1.; 1. |]; [| 1.; 1. |] |]
          ~thresholds:[| 0.8; 0.8 |]
      in
      let alone = { Dist_protocol.me = 0; own = 0.5; others = [] } in
      let seen = { Dist_protocol.me = 0; own = 0.5; others = [ (1, 0.5) ] } in
      Alcotest.(check (float 0.)) "below alone" 1. (Dist_protocol.decide p alone);
      Alcotest.(check (float 0.)) "above with message" 0. (Dist_protocol.decide p seen));
  ]

(* ------------------------- Engine ------------------------- *)

let engine_tests =
  [
    Alcotest.test_case "views respect the pattern" `Quick (fun () ->
      let pat = Comm_pattern.broadcast ~n:3 ~source:2 in
      let inputs = [| 0.1; 0.2; 0.3 |] in
      let vs = Engine.views pat inputs in
      Alcotest.(check (float 0.)) "own" 0.1 vs.(0).Dist_protocol.own;
      Alcotest.(check (list (pair int (float 0.)))) "player 0 sees source" [ (2, 0.3) ]
        vs.(0).Dist_protocol.others;
      Alcotest.(check (list (pair int (float 0.)))) "source sees none" []
        vs.(2).Dist_protocol.others);
    Alcotest.test_case "run_once loads add up" `Quick (fun () ->
      let rng = Rng.create ~seed:12 in
      let pat = Comm_pattern.none ~n:4 in
      let p = Dist_protocol.common_threshold ~n:4 0.5 in
      for _ = 1 to 100 do
        let o = Engine.run_once rng ~delta:1.2 pat p in
        let total = Array.fold_left ( +. ) 0. o.Engine.inputs in
        Alcotest.(check (float 1e-12)) "loads partition inputs" total
          (o.Engine.load0 +. o.Engine.load1);
        Alcotest.(check bool) "win consistent" o.Engine.win
          (o.Engine.load0 <= 1.2 && o.Engine.load1 <= 1.2)
      done);
    Alcotest.test_case "full-pattern closure estimate is pinned" `Quick (fun () ->
      (* a view-reading protocol plays on the closure over run_once; its
         estimate is a function of (seed, leases, samples), so the win
         count is pinned *)
      let p =
        Dist_protocol.weighted_threshold ~weights:(Array.make 3 (Array.make 3 0.5))
          ~thresholds:(Array.make 3 0.6)
      in
      let e =
        Engine.win_probability_mc ~rng:(Rng.create ~seed:7) ~samples:50_000 ~delta:1.
          (Comm_pattern.full ~n:3) p
      in
      Alcotest.(check (float 0.)) "wins" 8_609. (Float.round (e.Mc.mean *. 50_000.)));
    Alcotest.test_case "no-comm engine matches core closed form (threshold)" `Quick (fun () ->
      let n = 3 and delta = 1. in
      let exact = Threshold.winning_probability_sym ~n ~delta 0.622 in
      let grid =
        Engine.win_probability_grid ~points:200 ~delta (Comm_pattern.none ~n)
          (Dist_protocol.common_threshold ~n 0.622)
      in
      Alcotest.(check bool) "grid close" true (abs_float (grid -. exact) < 2e-3);
      let rng = Rng.create ~seed:31 in
      let est =
        Engine.win_probability_mc ~rng ~samples:150_000 ~delta (Comm_pattern.none ~n)
          (Dist_protocol.common_threshold ~n 0.622)
      in
      Alcotest.(check bool) "mc agrees" true (Mc.agrees est exact));
    Alcotest.test_case "no-comm engine matches core closed form (oblivious)" `Quick (fun () ->
      let n = 4 and delta = 4. /. 3. in
      let exact = Oblivious.winning_probability_uniform ~n ~delta in
      let rng = Rng.create ~seed:32 in
      let est =
        Engine.win_probability_mc ~rng ~samples:150_000 ~delta (Comm_pattern.none ~n)
          (Dist_protocol.fair_coin ~n)
      in
      Alcotest.(check bool) "mc agrees" true (Mc.agrees est exact));
    Alcotest.test_case "win_probability_given: randomized enumeration" `Quick (fun () ->
      (* all players flip fair coins on fixed inputs: compare against a
         direct 2^n enumeration *)
      let n = 3 and delta = 1. in
      let pat = Comm_pattern.none ~n in
      let proto = Dist_protocol.fair_coin ~n in
      let inputs = [| 0.7; 0.6; 0.5 |] in
      let direct =
        let count = ref 0 in
        for mask = 0 to 7 do
          let l0 = ref 0. in
          for i = 0 to 2 do
            if mask land (1 lsl i) = 0 then l0 := !l0 +. inputs.(i)
          done;
          let total = 1.8 in
          if !l0 <= delta && total -. !l0 <= delta then incr count
        done;
        float_of_int !count /. 8.
      in
      Alcotest.(check (float 1e-12)) "enumeration" direct
        (Engine.win_probability_given ~delta pat proto inputs));
    Alcotest.test_case "win_probability_given: deterministic single branch" `Quick (fun () ->
      let n = 3 and delta = 1. in
      let pat = Comm_pattern.none ~n in
      let proto = Dist_protocol.common_threshold ~n 0.5 in
      (* inputs 0.4, 0.45, 0.9: bins {0,1} get 0.85 and 0.9 -> win *)
      Alcotest.(check (float 0.)) "win" 1.
        (Engine.win_probability_given ~delta pat proto [| 0.4; 0.45; 0.9 |]);
      (* inputs 0.4, 0.45, 0.3: all in bin 0 -> 1.15 > 1 -> lose *)
      Alcotest.(check (float 0.)) "lose" 0.
        (Engine.win_probability_given ~delta pat proto [| 0.4; 0.45; 0.3 |]));
    Alcotest.test_case "grid size guard" `Quick (fun () ->
      try
        ignore
          (Engine.win_probability_grid ~points:1000 ~delta:1. (Comm_pattern.none ~n:4)
             (Dist_protocol.fair_coin ~n:4));
        Alcotest.fail "accepted oversized grid"
      with Invalid_argument _ -> ());
    Alcotest.test_case "communication helps (X1 sanity)" `Quick (fun () ->
      (* A hand-rolled broadcast protocol: the source plays threshold 0.622;
         listeners route away from the bin the source loaded when its input
         is large. It must beat the best no-communication protocol. *)
      let n = 3 and delta = 1. in
      let pat = Comm_pattern.broadcast ~n ~source:0 in
      let proto =
        (* An analytic witness: the source takes bin 0; listener 1 joins it
           exactly when the announced load leaves room; listener 2 takes
           bin 1. The only losing event is {x0 + x1 > 1 and x1 + x2 > 1},
           of probability 1/3, so P(win) = 2/3 > 0.5446. *)
        Dist_protocol.make ~deterministic:true ~name:"listen" (fun v ->
          match v.Dist_protocol.me with
          | 0 -> 1.
          | 1 -> (
            match Dist_protocol.view_input v 0 with
            | Some x0 when x0 +. v.Dist_protocol.own <= 1. -> 1.
            | _ -> 0.)
          | _ -> 0.)
      in
      let p_comm = Engine.win_probability_grid ~points:120 ~delta pat proto in
      let p_best_nocomm = (1. /. 6.) +. (1. /. sqrt 7.) in
      Alcotest.(check bool)
        (Printf.sprintf "%.4f > %.4f" p_comm p_best_nocomm)
        true (p_comm > p_best_nocomm));
    Alcotest.test_case "custom input distributions via sampler" `Quick (fun () ->
      (* inputs distributed as x^2 of a uniform (density skewed to 0): the
         common-threshold win probability must rise above the uniform case
         since loads shrink stochastically *)
      let n = 3 and delta = 1. in
      let pat = Comm_pattern.none ~n in
      let proto = Dist_protocol.common_threshold ~n 0.622 in
      let rng = Rng.create ~seed:77 in
      let small_inputs rng = let u = Rng.float01 rng in u *. u in
      let est_small =
        Engine.win_probability_mc ~sampler:small_inputs ~rng ~samples:100_000 ~delta pat proto
      in
      let est_unif = Engine.win_probability_mc ~rng ~samples:100_000 ~delta pat proto in
      Alcotest.(check bool) "skewed-to-zero inputs win more" true
        (est_small.Mc.mean > est_unif.Mc.mean +. 0.05);
      (* and the default sampler reproduces the closed form *)
      Alcotest.(check bool) "uniform default agrees with Thm 5.1" true
        (Mc.agrees est_unif (Threshold.winning_probability_sym ~n ~delta 0.622)));
    Alcotest.test_case "optimize_family improves on the start" `Quick (fun () ->
      let n = 3 and delta = 1. in
      let pat = Comm_pattern.none ~n in
      let family params = Dist_protocol.common_threshold ~n params.(0) in
      let x0 = [| 0.3 |] in
      let start = Engine.win_probability_grid ~points:60 ~delta pat (family x0) in
      let best_x, best_v =
        Engine.optimize_family ~points:60 ~delta pat ~family ~x0 ~bounds:[| (0., 1.) |] ()
      in
      Alcotest.(check bool) "improves" true (best_v >= start);
      Alcotest.(check bool) "lands near 0.62" true (abs_float (best_x.(0) -. 0.622) < 0.05));
    Alcotest.test_case "grid too large error names points and n" `Quick (fun () ->
      let pat = Comm_pattern.none ~n:3 in
      let proto = Dist_protocol.common_threshold ~n:3 0.5 in
      Alcotest.check_raises "message pins points/n"
        (Invalid_argument
           "Engine.win_probability_grid: grid too large (points = 2000, n = 3 gives 8e+09 \
            cells > 1e8)")
        (fun () -> ignore (Engine.win_probability_grid ~points:2000 ~delta:1. pat proto)));
  ]

(* ------------------------- sharded exact grid ------------------------- *)

(* The exact-path determinism contract: at a fixed (points, leases) the
   sharded integral must not depend on the worker count, and cancellation
   must still fire with merged progress. *)
let grid_par_tests =
  let n = 3 and delta = 1. in
  let pat = Comm_pattern.none ~n in
  let proto = Dist_protocol.common_threshold ~n 0.622 in
  (* reference: a single-pass midpoint sum over the points^n cells in
     row-major order *)
  let midpoint_sum ~n ~delta ~pat ~proto points =
    let coord k = (float_of_int k +. 0.5) /. float_of_int points in
    let inputs = Array.make n 0. in
    let acc = ref 0. in
    let rec loop d =
      if d = n then acc := !acc +. Engine.win_probability_given ~delta pat proto inputs
      else
        for k = 0 to points - 1 do
          inputs.(d) <- coord k;
          loop (d + 1)
        done
    in
    loop 0;
    !acc /. (float_of_int points ** float_of_int n)
  in
  [
    Alcotest.test_case "sharded grid is bit-identical across domains 1/2/4" `Quick (fun () ->
      let grid j = Engine.win_probability_grid ~points:24 ~domains:j ~delta pat proto in
      let g1 = grid 1 in
      List.iter
        (fun j -> Alcotest.(check (float 0.)) (Printf.sprintf "domains=%d" j) g1 (grid j))
        [ 2; 4 ];
      (* a single pass groups the same cell sums differently; the lease
         regrouping may move the last ulp, nothing more *)
      Alcotest.(check bool) "matches the sequential sweep" true
        (Float.abs (g1 -. midpoint_sum ~n ~delta ~pat ~proto 24) < 1e-12));
    Alcotest.test_case "worker-count invariance holds for any lease count" `Quick (fun () ->
      List.iter
        (fun leases ->
          let grid j =
            Engine.win_probability_grid ~points:8 ~domains:j ~leases ~delta pat proto
          in
          Alcotest.(check (float 0.)) (Printf.sprintf "leases=%d" leases) (grid 1) (grid 3))
        [ 1; 7; 64; 1000 ]);
    Alcotest.test_case "lease count > cells still covers every cell once" `Quick (fun () ->
      (* 8 cells over 64 leases: most leases are empty *)
      let tiny j = Engine.win_probability_grid ~points:2 ~domains:j ~leases:64 ~delta pat proto in
      Alcotest.(check (float 1e-12)) "empty leases contribute nothing"
        (midpoint_sum ~n ~delta ~pat ~proto 2)
        (tiny 4);
      Alcotest.(check (float 0.)) "and stay worker-count invariant" (tiny 1) (tiny 4));
    Alcotest.test_case "odometer walk covers every cell for any lease split" `Quick (fun () ->
      (* each lease decodes its first cell and carries digits from there;
         lease boundaries land mid-row for most (points, leases) pairs *)
      List.iter
        (fun n ->
          let delta = float_of_int n /. 2.5 in
          let pat = Comm_pattern.none ~n in
          let proto =
            Dist_protocol.oblivious (Array.init n (fun i -> 0.3 +. (0.2 *. float_of_int i)))
          in
          List.iter
            (fun points ->
              let reference = midpoint_sum ~n ~delta ~pat ~proto points in
              List.iter
                (fun leases ->
                  Alcotest.(check (float 1e-12))
                    (Printf.sprintf "n=%d points=%d leases=%d" n points leases)
                    reference
                    (Engine.win_probability_grid ~points ~leases ~delta pat proto))
                [ 1; 3; 7; 64; 500 ])
            [ 2; 3; 5; 7 ])
        [ 1; 2; 3 ]);
    Alcotest.test_case "cancellation fires mid-lease with merged progress" `Quick (fun () ->
      (* let roughly half the sweep complete before the hook flips: the
         raise must carry a cells_done merged across leases, not one
         lease's private count *)
      let calls = Atomic.make 0 in
      let cancel () = Atomic.fetch_and_add calls 1 >= 2_000 in
      (try
         ignore
           (Engine.win_probability_grid ~points:16 ~domains:4 ~cancel ~delta pat proto);
         Alcotest.fail "sweep outran its cancel hook"
       with Engine.Cancelled { cells_done; cells_total } ->
         Alcotest.(check int) "total is the full grid" 4096 cells_total;
         Alcotest.(check bool)
           (Printf.sprintf "progress %d reflects completed work" cells_done)
           true
           (cells_done >= 1_000 && cells_done < cells_total));
      (* immediate cancellation reports zero cells done *)
      (try
         ignore
           (Engine.win_probability_grid ~points:16 ~domains:4
              ~cancel:(fun () -> true)
              ~delta pat proto);
         Alcotest.fail "immediate cancel ignored"
       with Engine.Cancelled { cells_done; cells_total } ->
         Alcotest.(check int) "no progress" 0 cells_done;
         Alcotest.(check int) "total still reported" 4096 cells_total));
    Alcotest.test_case "worker exceptions on the exact path propagate" `Quick (fun () ->
      let boom = Dist_protocol.make ~deterministic:true ~name:"boom" (fun _ -> failwith "boom") in
      Alcotest.check_raises "protocol exception surfaces" (Failure "boom") (fun () ->
        ignore (Engine.win_probability_grid ~points:8 ~domains:3 ~delta pat boom)));
    Alcotest.test_case "optimize_family accepts domains" `Quick (fun () ->
      let family params = Dist_protocol.common_threshold ~n params.(0) in
      let x0 = [| 0.3 |] in
      let _, best_seq =
        Engine.optimize_family ~points:20 ~delta pat ~family ~x0 ~bounds:[| (0., 1.) |] ()
      in
      let _, best_par =
        Engine.optimize_family ~points:20 ~domains:2 ~delta pat ~family ~x0
          ~bounds:[| (0., 1.) |] ()
      in
      (* scoring sweeps differ only by lease regrouping ulps, so the
         optimizer must land essentially in the same place *)
      Alcotest.(check bool) "same optimum" true (Float.abs (best_seq -. best_par) < 1e-6));
  ]

(* ------------------------- Py91 ladder ------------------------- *)

let py91_tests =
  [
    Alcotest.test_case "ladder is strictly increasing and matches anchors" `Quick (fun () ->
      let rng = Rng.create ~seed:991 in
      let measured =
        List.map
          (fun (name, (pat, proto), expected) ->
            let est =
              Engine.win_probability_mc ~rng ~samples:300_000 ~delta:Py91.delta pat proto
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s near %.3f (got %.4f)" name expected est.Mc.mean)
              true
              (abs_float (est.Mc.mean -. expected) < 0.01);
            est.Mc.mean)
          Py91.ladder
      in
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | _ -> true
      in
      Alcotest.(check bool) "monotone ladder" true (increasing measured));
    Alcotest.test_case "full information achieves the feasibility bound" `Quick (fun () ->
      (* greedy wins exactly when some partition fits: compare per input *)
      let pat, proto = Py91.full_information in
      let rng = Rng.create ~seed:992 in
      for _ = 1 to 3_000 do
        let inputs = Array.init 3 (fun _ -> Rng.float01 rng) in
        let greedy_wins = Engine.win_probability_given ~delta:1. pat proto inputs = 1. in
        let a = inputs.(0) and b = inputs.(1) and c = inputs.(2) in
        let feasible =
          let ok x y = x <= 1. && y <= 1. in
          ok (a +. b) c || ok (a +. c) b || ok (b +. c) a || a +. b +. c <= 1.
        in
        Alcotest.(check bool) "greedy = feasible" feasible greedy_wins
      done);
    Alcotest.test_case "no-communication rung equals the certified optimum" `Quick (fun () ->
      Alcotest.(check (float 1e-12)) "constant" ((1. /. 6.) +. (1. /. sqrt 7.))
        Py91.expected_no_communication);
  ]

let gen_inputs n = QCheck.Gen.(list_repeat n (float_bound_exclusive 1.))

(* ------------------------- batch kernel dispatch ------------------------- *)

let engine_kernel_tests =
  let n = 3 and delta = 1. in
  let pattern = Comm_pattern.none ~n in
  [
    Alcotest.test_case "protocol constructors carry their local rule" `Quick (fun () ->
      (match Dist_protocol.local_rule (Dist_protocol.single_threshold [| 0.1; 0.2; 0.3 |]) with
      | Some (Mc_kernel.Threshold a) ->
        Alcotest.(check (array (float 0.))) "thresholds" [| 0.1; 0.2; 0.3 |] a
      | _ -> Alcotest.fail "single_threshold lost its local rule");
      (match Dist_protocol.local_rule (Dist_protocol.fair_coin ~n) with
      | Some (Mc_kernel.Oblivious a) ->
        Alcotest.(check (array (float 0.))) "alphas" [| 0.5; 0.5; 0.5 |] a
      | _ -> Alcotest.fail "fair_coin lost its local rule");
      (match Dist_protocol.local_rule (Dist_protocol.common_threshold ~n 0.62) with
      | Some (Mc_kernel.Threshold _) -> ()
      | _ -> Alcotest.fail "common_threshold lost its local rule");
      (* protocols whose decisions read the view have no local-rule form *)
      let custom = Dist_protocol.make ~name:"custom" (fun _ -> 0.5) in
      Alcotest.(check bool) "make is view-dependent" true
        (Dist_protocol.local_rule custom = None);
      let wt =
        Dist_protocol.weighted_threshold
          ~weights:(Array.make n (Array.make n 0.3))
          ~thresholds:(Array.make n 0.5)
      in
      let fb = Dist_protocol.with_fallback ~expected:(Comm_pattern.full ~n) wt in
      Alcotest.(check bool) "with_fallback drops the local rule" true
        (Dist_protocol.local_rule fb = None);
      (* sanitized wraps the decision function but keeps the rule data *)
      let s = Dist_protocol.sanitized (Dist_protocol.fair_coin ~n) in
      Alcotest.(check bool) "sanitized preserves the local rule" true
        (Dist_protocol.local_rule s <> None));
    Alcotest.test_case "kernel MC agrees with grid and scalar MC" `Quick (fun () ->
      let kernel = Dist_protocol.common_threshold ~n 0.62 in
      (* the same rule with its local rule hidden takes the closure *)
      let closure =
        Dist_protocol.make ~deterministic:true ~name:"closure" (Dist_protocol.decide kernel)
      in
      let exact = Threshold.winning_probability_sym ~n ~delta 0.62 in
      List.iter
        (fun protocol ->
          let name = Dist_protocol.name protocol in
          let est =
            Engine.win_probability_mc ~rng:(Rng.create ~seed:61) ~samples:150_000 ~delta pattern
              protocol
          in
          Alcotest.(check bool) (name ^ " agrees with the closed form") true (Mc.agrees est exact);
          (* only the local rule has a kernel spec, and then the
             engine's estimate is the kernel's, bit for bit *)
          let spec = Engine.kernel_spec ~delta pattern protocol in
          Alcotest.(check bool) (name ^ " has a kernel spec") (protocol == kernel)
            (Option.is_some spec);
          Option.iter
            (fun spec ->
              let by_kernel =
                Mc.probability ~kernel:spec ~rng:(Rng.create ~seed:61) ~samples:150_000 (fun _ ->
                    Alcotest.fail "the kernel never calls the closure")
              in
              Alcotest.(check (float 0.)) (name ^ " is the kernel estimate") by_kernel.Mc.mean
                est.Mc.mean)
            spec;
          let est_j j =
            Engine.win_probability_mc ~domains:j ~rng:(Rng.create ~seed:62) ~samples:40_000 ~delta
              pattern protocol
          in
          let e1 = est_j 1 in
          List.iter
            (fun j ->
              Alcotest.(check (float 0.))
                (Printf.sprintf "%s bit-identical j=%d" name j)
                e1.Mc.mean (est_j j).Mc.mean)
            [ 2; 4 ])
        [ kernel; closure ]);
    Alcotest.test_case "questions the kernel cannot play take the closure" `Quick (fun () ->
      (* a view-reading protocol, a custom input sampler, and a local rule
         on a pattern that sends messages: each estimate is the closure
         path's, bit for bit at the same seed *)
      let threshold = Dist_protocol.common_threshold ~n 0.62 in
      let half rng = Rng.float01 rng *. 0.5 in
      List.iter
        (fun (name, sampler, pattern, protocol) ->
          let est =
            Engine.win_probability_mc ?sampler ~rng:(Rng.create ~seed:63) ~samples:20_000 ~delta
              pattern protocol
          in
          let closure =
            Mc.probability ~rng:(Rng.create ~seed:63) ~samples:20_000 (fun rng ->
                (Engine.run_once ?sampler rng ~delta pattern protocol).Engine.win)
          in
          Alcotest.(check (float 0.)) name closure.Mc.mean est.Mc.mean)
        [
          ("view reader", None, pattern, Dist_protocol.make ~name:"view-reader" (fun _ -> 0.5));
          ("custom sampler", Some half, pattern, threshold);
          ("communication", None, Comm_pattern.full ~n, threshold);
        ]);
  ]

let engine_props =
  [
    qtest "win_probability_given in [0,1]"
      (QCheck.make
         ~print:(fun l -> String.concat ";" (List.map string_of_float l))
         QCheck.Gen.(int_range 1 5 >>= gen_inputs))
      (fun inputs ->
        let inputs = Array.of_list inputs in
        let n = Array.length inputs in
        let pat = Comm_pattern.none ~n in
        let proto = Dist_protocol.oblivious (Array.make n 0.37) in
        let p = Engine.win_probability_given ~delta:1. pat proto inputs in
        p >= 0. && p <= 1.);
    qtest ~count:20 "grid integration close to closed form for random beta"
      (QCheck.int_range 1 19)
      (fun k ->
        let beta = float_of_int k /. 20. in
        let n = 3 and delta = 1. in
        let exact = Threshold.winning_probability_sym ~n ~delta beta in
        let grid =
          Engine.win_probability_grid ~points:100 ~delta (Comm_pattern.none ~n)
            (Dist_protocol.common_threshold ~n beta)
        in
        abs_float (grid -. exact) < 5e-3);
  ]

let () =
  Alcotest.run "distsim"
    [
      ("pattern", pattern_tests);
      ("protocol", protocol_tests);
      ("engine", engine_tests);
      ("grid-par", grid_par_tests);
      ("py91", py91_tests);
      ("engine-kernel", engine_kernel_tests);
      ("engine-prop", engine_props);
    ]
