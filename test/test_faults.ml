(* Tests for the fault-injection stack: fault models, the fault engine
   (seeded determinism, zero-rate equivalence with the clean engine, the
   exact crash fold), resilient protocol combinators, and the
   degradation-analysis sweep. *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let contains s needle =
  let ls = String.length s and ln = String.length needle in
  let rec at i = i + ln <= ls && (String.sub s i ln = needle || at (i + 1)) in
  at 0

(* Metrics are process-global and off by default; measure counter deltas
   with the switch temporarily on. *)
let with_metrics f =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

let counter_value name =
  match Metrics.find name with
  | Some { Metrics.value = Metrics.Counter_v v; _ } -> v
  | _ -> 0

(* The same decisions with the local rule hidden: the engine can no
   longer hand the run to the batch kernel, so it takes the closure. *)
let hide_local_rule p =
  Dist_protocol.make ~name:(Dist_protocol.name p ^ "/closure") (Dist_protocol.decide p)

(* ------------------------- Fault_model ------------------------- *)

let model_tests =
  [
    Alcotest.test_case "none is none and foldable" `Quick (fun () ->
      Alcotest.(check bool) "is_none" true (Fault_model.is_none Fault_model.none);
      Alcotest.(check bool) "foldable" true (Fault_model.crash_foldable Fault_model.none);
      Fault_model.validate Fault_model.none);
    Alcotest.test_case "validate rejects bad rates" `Quick (fun () ->
      Alcotest.(check bool) "crash > 1" true
        (raises_invalid (fun () -> Fault_model.make ~crash:1.5 ()));
      Alcotest.(check bool) "negative noise" true
        (raises_invalid (fun () -> Fault_model.make ~noise:(-0.1) ()));
      Alcotest.(check bool) "nan loss" true
        (raises_invalid (fun () -> Fault_model.make ~link_loss:Float.nan ()));
      Alcotest.(check bool) "bad default bin" true
        (raises_invalid (fun () ->
           Fault_model.make ~crash:0.1 ~crash_mode:(Fault_model.Default_bin 2) ())));
    Alcotest.test_case "foldability is crash-only" `Quick (fun () ->
      Alcotest.(check bool) "crash only" true
        (Fault_model.crash_foldable (Fault_model.crash_only 0.3));
      Alcotest.(check bool) "with loss" false
        (Fault_model.crash_foldable (Fault_model.make ~crash:0.3 ~link_loss:0.1 ()));
      Alcotest.(check bool) "with jitter" false
        (Fault_model.crash_foldable (Fault_model.make ~jitter:0.2 ())));
    Alcotest.test_case "to_string names every dimension" `Quick (fun () ->
      let s =
        Fault_model.to_string
          (Fault_model.make ~crash:0.25 ~crash_mode:(Fault_model.Default_bin 1) ~link_loss:0.1
             ~stale:0.05 ~noise:0.01 ~jitter:0.2 ())
      in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (Printf.sprintf "%S mentions %S" s needle) true (contains s needle))
        [ "crash=0.25"; "bin1"; "loss=0.1"; "stale=0.05"; "noise=0.01"; "jitter=0.2" ]);
  ]

(* ------------------------- Engine ~faults ------------------------- *)

let all_faults =
  Fault_model.make ~crash:0.2 ~crash_mode:(Fault_model.Default_bin 0) ~link_loss:0.25 ~stale:0.15
    ~noise:0.05 ~jitter:0.1 ()

let outcome_stream ~seed ~plays ~faults ~delta pattern protocol =
  let rng = Rng.create ~seed in
  List.init plays (fun _ -> Engine.run_once ~faults rng ~delta pattern protocol)

let engine_tests =
  [
    Alcotest.test_case "same seed, same outcome stream" `Quick (fun () ->
      let pattern = Comm_pattern.ring ~n:4 in
      let protocol = Dist_protocol.common_threshold ~n:4 0.62 in
      let run () = outcome_stream ~seed:5 ~plays:300 ~faults:all_faults ~delta:1.2 pattern protocol in
      let a = run () and b = run () in
      List.iter2
        (fun (x : Engine.outcome) (y : Engine.outcome) ->
          Alcotest.(check (array (float 0.))) "inputs" x.Engine.inputs y.Engine.inputs;
          Alcotest.(check (array int)) "decisions" x.Engine.decisions y.Engine.decisions;
          Alcotest.(check (array bool)) "crashed" x.Engine.crashed y.Engine.crashed;
          Alcotest.(check (float 0.)) "delta_eff" x.Engine.delta_eff y.Engine.delta_eff;
          Alcotest.(check (float 0.)) "load0" x.Engine.load0 y.Engine.load0;
          Alcotest.(check bool) "win" x.Engine.win y.Engine.win;
          Alcotest.(check int) "faults" x.Engine.faults y.Engine.faults)
        a b);
    Alcotest.test_case "zero rates replay the clean engine draw-for-draw" `Quick (fun () ->
      (* every rate 0, whatever the crash mode: the faulty play must draw
         exactly what the fault-free play draws, in the same order *)
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.oblivious [| 0.3; 0.5; 0.7 |] in
      List.iter
        (fun faults ->
          let frng = Rng.create ~seed:9 and crng = Rng.create ~seed:9 in
          for _ = 1 to 300 do
            let f = Engine.run_once ~faults frng ~delta:1. pattern protocol in
            let c = Engine.run_once crng ~delta:1. pattern protocol in
            Alcotest.(check (array (float 0.))) "inputs" c.Engine.inputs f.Engine.inputs;
            Alcotest.(check (array int)) "decisions" c.Engine.decisions f.Engine.decisions;
            Alcotest.(check (array bool)) "no crash flags" [||] f.Engine.crashed;
            Alcotest.(check (float 0.)) "capacity" 1. f.Engine.delta_eff;
            Alcotest.(check (float 0.)) "load0" c.Engine.load0 f.Engine.load0;
            Alcotest.(check (float 0.)) "load1" c.Engine.load1 f.Engine.load1;
            Alcotest.(check bool) "win" c.Engine.win f.Engine.win;
            Alcotest.(check int) "no faults" 0 f.Engine.faults
          done;
          Alcotest.(check int64) "streams end in the same state" (Rng.next_int64 crng)
            (Rng.next_int64 frng))
        [ Fault_model.none; Fault_model.make ~crash_mode:(Fault_model.Default_bin 0) () ]);
    Alcotest.test_case "zero-rate MC estimate is bit-identical to the clean engine" `Quick
      (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.common_threshold ~n:3 0.622 in
      let est ?faults () =
        Engine.win_probability_mc ?faults ~rng:(Rng.create ~seed:17) ~samples:50_000 ~delta:1.
          pattern protocol
      in
      let est_c = est () in
      List.iter
        (fun faults ->
          Alcotest.(check (float 0.)) (Fault_model.to_string faults) est_c.Mc.mean
            (est ~faults ()).Mc.mean)
        [ Fault_model.none; Fault_model.make ~crash_mode:(Fault_model.Default_bin 1) () ];
      (* and the shared estimate is right: Theorem 5.1 over Q *)
      let exact =
        Rat.to_float
          (Threshold.Q.winning_probability ~delta:Rat.one (Array.make 3 (Rat.of_ints 311 500)))
      in
      Alcotest.(check bool)
        (Printf.sprintf "MC %.4f vs exact %.4f" est_c.Mc.mean exact)
        true (Mc.agrees est_c exact));
    Alcotest.test_case "crash faults are counted and degrade plays" `Quick (fun () ->
      with_metrics (fun () ->
        let before_injected = counter_value "ddm_faults_injected_total" in
        let before_degraded = counter_value "ddm_faults_degraded_plays_total" in
        let rng = Rng.create ~seed:21 in
        let pattern = Comm_pattern.none ~n:3 in
        let protocol = Dist_protocol.fair_coin ~n:3 in
        let faults = Fault_model.make ~crash:0.5 ~crash_mode:(Fault_model.Default_bin 0) () in
        for _ = 1 to 200 do
          ignore (Engine.run_once ~faults rng ~delta:1. pattern protocol)
        done;
        let injected = counter_value "ddm_faults_injected_total" - before_injected in
        let degraded = counter_value "ddm_faults_degraded_plays_total" - before_degraded in
        Alcotest.(check bool)
          (Printf.sprintf "injected %d near 300" injected)
          true
          (injected > 200 && injected < 400);
        Alcotest.(check bool) "degraded plays counted" true (degraded > 100 && degraded <= 200)));
    Alcotest.test_case "degrade_view: loss removes, stale stays in [0,1]" `Quick (fun () ->
      let rng = Rng.create ~seed:3 in
      let v = { Dist_protocol.me = 0; own = 0.4; others = [ (1, 0.5); (2, 0.6); (3, 0.7) ] } in
      let lossy = Fault_model.make ~link_loss:1. () in
      let dv, k = Engine.degrade_view rng lossy v in
      Alcotest.(check int) "all links lost" 3 k;
      Alcotest.(check (list (pair int (float 0.)))) "empty" [] dv.Dist_protocol.others;
      let stale = Fault_model.make ~stale:1. () in
      let dv, k = Engine.degrade_view rng stale v in
      Alcotest.(check int) "all links stale" 3 k;
      Alcotest.(check int) "links kept" 3 (List.length dv.Dist_protocol.others);
      List.iter
        (fun (j, x) ->
          Alcotest.(check bool) "index kept" true (List.mem_assoc j v.Dist_protocol.others);
          Alcotest.(check bool) "stale value in [0,1)" true (x >= 0. && x < 1.))
        dv.Dist_protocol.others;
      let noisy = Fault_model.make ~noise:0.2 () in
      let dv, k = Engine.degrade_view rng noisy v in
      Alcotest.(check int) "own + 3 links perturbed" 4 k;
      Alcotest.(check bool) "own moved at most by amplitude" true
        (abs_float (dv.Dist_protocol.own -. 0.4) <= 0.2));
    Alcotest.test_case "crash=1 drop always wins; crash=1 bin0 wins iff total fits" `Quick
      (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.common_threshold ~n:3 0.622 in
      let p_drop =
        Engine.win_probability_given ~faults:(Fault_model.crash_only 1.) ~delta:1. pattern protocol
          [| 0.9; 0.8; 0.7 |]
      in
      Alcotest.(check (float 1e-12)) "drop sheds all load" 1. p_drop;
      let bin0 r inputs =
        Engine.win_probability_given
          ~faults:(Fault_model.make ~crash:r ~crash_mode:(Fault_model.Default_bin 0) ())
          ~delta:1. pattern protocol inputs
      in
      Alcotest.(check (float 1e-12)) "total 0.9 fits in bin 0" 1. (bin0 1. [| 0.4; 0.3; 0.2 |]);
      Alcotest.(check (float 1e-12)) "total 1.2 overflows bin 0" 0. (bin0 1. [| 0.5; 0.4; 0.3 |]));
    Alcotest.test_case "zero-rate fold equals the clean enumeration" `Quick (fun () ->
      (* reference: a test-local walk over the 2^n decision vectors of the
         oblivious rule, weighting each by its probability *)
      let alpha = [| 0.2; 0.4; 0.6; 0.8 |] in
      let pattern = Comm_pattern.none ~n:4 in
      let protocol = Dist_protocol.oblivious alpha in
      let delta = 1.3 in
      let enumerate inputs =
        let acc = ref 0. in
        for mask = 0 to 15 do
          let w = ref 1. and l0 = ref 0. and l1 = ref 0. in
          for i = 0 to 3 do
            if mask land (1 lsl i) = 0 then begin
              w := !w *. alpha.(i);
              l0 := !l0 +. inputs.(i)
            end
            else begin
              w := !w *. (1. -. alpha.(i));
              l1 := !l1 +. inputs.(i)
            end
          done;
          if !l0 <= delta && !l1 <= delta then acc := !acc +. !w
        done;
        !acc
      in
      let rng = Rng.create ~seed:33 in
      for _ = 1 to 50 do
        let inputs = Array.init 4 (fun _ -> Rng.float01 rng) in
        List.iter
          (fun faults ->
            Alcotest.(check (float 1e-12)) "fold = clean" (enumerate inputs)
              (Engine.win_probability_given ?faults ~delta pattern protocol inputs))
          [ None; Some Fault_model.none;
            Some (Fault_model.make ~crash:0. ~crash_mode:(Fault_model.Default_bin 1) ()) ]
      done);
    Alcotest.test_case "crash fold agrees with Monte-Carlo" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.common_threshold ~n:3 0.622 in
      let faults = Fault_model.make ~crash:0.3 ~crash_mode:(Fault_model.Default_bin 0) () in
      let exact = Engine.win_probability_grid ~points:128 ~faults ~delta:1. pattern protocol in
      (* on the kernel, and on the closure the hidden local rule takes *)
      List.iter
        (fun protocol ->
          let est =
            Engine.win_probability_mc ~rng:(Rng.create ~seed:41) ~samples:200_000 ~faults
              ~delta:1. pattern protocol
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: MC %.4f vs fold %.4f" (Dist_protocol.name protocol) est.Mc.mean
               exact)
            true (Mc.agrees est exact))
        [ protocol; hide_local_rule protocol ]);
    Alcotest.test_case "non-foldable model is rejected by the fold" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.fair_coin ~n:3 in
      Alcotest.(check bool) "raises" true
        (raises_invalid (fun () ->
           Engine.win_probability_given
             ~faults:(Fault_model.make ~link_loss:0.5 ())
             ~delta:1. pattern protocol [| 0.5; 0.5; 0.5 |])));
    Alcotest.test_case "golden degradation table (n=3, delta=1, beta*)" `Quick (fun () ->
      (* pinned 64-point-grid fold values for the paper's optimal common
         threshold beta* = 1 - 1/sqrt(7) under Default_bin-0 crashes *)
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.common_threshold ~n:3 (1. -. (1. /. sqrt 7.)) in
      let fold r =
        Engine.win_probability_grid ~points:64
          ~faults:(Fault_model.make ~crash:r ~crash_mode:(Fault_model.Default_bin 0) ())
          ~delta:1. pattern protocol
      in
      let golden = [ (0., 0.546798706055); (0.1, 0.523612976073); (0.25, 0.482654571533) ] in
      List.iter
        (fun (r, expected) -> Alcotest.(check (float 1e-9)) (Printf.sprintf "rate %.2f" r) expected (fold r))
        golden;
      let values = List.map (fun (r, _) -> fold r) golden in
      let rec strictly_decreasing = function
        | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
        | _ -> true
      in
      Alcotest.(check bool) "monotone degradation" true (strictly_decreasing values));
  ]

(* ------------------------- resilient combinators ------------------------- *)

let nan_protocol =
  Dist_protocol.make ~name:"nan" (fun v -> if v.Dist_protocol.own >= 0. then Float.nan else 0.5)

let combinator_tests =
  [
    Alcotest.test_case "engine rejects non-finite decide outputs" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      Alcotest.(check bool) "run_once raises" true
        (raises_invalid (fun () ->
           Engine.run_once (Rng.create ~seed:1) ~delta:1. pattern nan_protocol));
      Alcotest.(check bool) "win_probability_given raises" true
        (raises_invalid (fun () ->
           Engine.win_probability_given ~delta:1. pattern nan_protocol [| 0.5; 0.5; 0.5 |]));
      Alcotest.(check bool) "fault injection raises too" true
        (raises_invalid (fun () ->
           Engine.run_once ~faults:Fault_model.none (Rng.create ~seed:1) ~delta:1. pattern
             nan_protocol)));
    Alcotest.test_case "with_fallback routes incomplete views to the fallback" `Quick (fun () ->
      let full = Comm_pattern.full ~n:3 in
      let inner =
        Dist_protocol.make ~name:"needs-links" (fun v ->
          if List.length v.Dist_protocol.others = 2 then 1. else Float.nan)
      in
      let resilient = Dist_protocol.with_fallback ~expected:full inner in
      let complete = { Dist_protocol.me = 0; own = 0.5; others = [ (1, 0.4); (2, 0.6) ] } in
      let broken = { Dist_protocol.me = 0; own = 0.5; others = [ (2, 0.6) ] } in
      Alcotest.(check (float 0.)) "complete view -> inner" 1.
        (Dist_protocol.decide resilient complete);
      with_metrics (fun () ->
        let before = counter_value "ddm_faults_fallbacks_total" in
        Alcotest.(check (float 0.)) "broken view -> fair coin" 0.5
          (Dist_protocol.decide resilient broken);
        Alcotest.(check int) "counted" (before + 1) (counter_value "ddm_faults_fallbacks_total"));
      (* a statically severed pattern triggers the fallback only for the
         affected viewer *)
      let severed =
        Comm_pattern.make ~n:3 (fun viewer ->
          if viewer = 0 then [] else Comm_pattern.sees full viewer)
      in
      let vs = Engine.views severed [| 0.5; 0.4; 0.6 |] in
      Alcotest.(check (float 0.)) "viewer 0 falls back" 0.5
        (Dist_protocol.decide resilient vs.(0));
      Alcotest.(check (float 0.)) "viewer 1 keeps inner" 1.
        (Dist_protocol.decide resilient vs.(1)));
    Alcotest.test_case "faulty MC estimates are worker-count independent" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.common_threshold ~n:3 0.62 in
      let faults = Fault_model.make ~crash:0.1 ~crash_mode:(Fault_model.Default_bin 0) () in
      let est j =
        Engine.win_probability_mc ~domains:j ~rng:(Rng.create ~seed:81) ~samples:20_000 ~faults
          ~delta:1. pattern protocol
      in
      let e1 = est 1 in
      Alcotest.(check (float 0.)) "-j 2 bit-identical" e1.Mc.mean (est 2).Mc.mean;
      Alcotest.(check (float 0.)) "-j 4 bit-identical" e1.Mc.mean (est 4).Mc.mean);
    Alcotest.test_case "parametric families validate the deciding player" `Quick (fun () ->
      let v1 = { Dist_protocol.me = 1; own = 0.5; others = [] } in
      Alcotest.(check bool) "oblivious short vector" true
        (raises_invalid (fun () -> Dist_protocol.decide (Dist_protocol.oblivious [| 0.5 |]) v1));
      Alcotest.(check bool) "single_threshold short vector" true
        (raises_invalid (fun () ->
           Dist_protocol.decide (Dist_protocol.single_threshold [| 0.5 |]) v1));
      Alcotest.(check bool) "empty oblivious" true
        (raises_invalid (fun () -> Dist_protocol.oblivious [||]));
      Alcotest.(check bool) "weighted_threshold row/threshold mismatch" true
        (raises_invalid (fun () ->
           Dist_protocol.weighted_threshold
             ~weights:[| [| 1.; 1. |]; [| 1.; 1. |] |]
             ~thresholds:[| 0.5 |]));
      Alcotest.(check bool) "weighted_threshold ragged row" true
        (raises_invalid (fun () ->
           Dist_protocol.weighted_threshold
             ~weights:[| [| 1.; 1. |]; [| 1. |] |]
             ~thresholds:[| 0.5; 0.5 |]));
      (* mismatches raise a named error, not Index out of bounds *)
      (match Dist_protocol.decide (Dist_protocol.oblivious [| 0.5 |]) v1 with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "message %S names the family" msg)
          true (contains msg "oblivious")));
  ]

(* ------------------------- batch kernel path ------------------------- *)

let kernel_tests =
  let pattern = Comm_pattern.none ~n:3 in
  let delta = 1. in
  (* MC vs the 64-point exact fold: inside the Wilson CI, or within the
     grid's own midpoint discretization allowance (same rule Degradation
     uses for its baseline check) *)
  let agrees_with_fold est fold = Mc.agrees est fold || Float.abs (est.Mc.mean -. fold) <= 0.5 /. 64. in
  [
    Alcotest.test_case "kernel crash estimates match the exact fold" `Quick (fun () ->
      let protocol = Dist_protocol.common_threshold ~n:3 0.62 in
      List.iter
        (fun mode ->
          let faults = Fault_model.make ~crash:0.2 ~crash_mode:mode () in
          let est =
            Engine.win_probability_mc ~rng:(Rng.create ~seed:71) ~samples:120_000 ~faults ~delta
              pattern protocol
          in
          let fold = Engine.win_probability_grid ~points:64 ~faults ~delta pattern protocol in
          Alcotest.(check bool)
            (Fault_model.to_string faults)
            true (agrees_with_fold est fold))
        [ Fault_model.Drop; Fault_model.Default_bin 0; Fault_model.Default_bin 1 ]);
    Alcotest.test_case "noise and link faults are inert for oblivious rules" `Quick (fun () ->
      (* noise perturbs only the value a rule reads; an oblivious rule reads
         nothing, and local rules never see other players, so link loss and
         stale reads cannot move the estimate either *)
      let exact = Oblivious.winning_probability_uniform ~n:3 ~delta in
      let faults = Fault_model.make ~noise:0.3 ~link_loss:0.4 ~stale:0.3 () in
      let est =
        Engine.win_probability_mc ~rng:(Rng.create ~seed:72) ~samples:150_000 ~faults ~delta
          pattern (Dist_protocol.fair_coin ~n:3)
      in
      Alcotest.(check bool) "fair coin unmoved" true (Mc.agrees est exact));
    Alcotest.test_case "kernel fault estimates are worker-count bit-identical" `Quick (fun () ->
      let protocol = Dist_protocol.common_threshold ~n:3 0.62 in
      let faults = Fault_model.make ~crash:0.15 ~noise:0.1 ~jitter:0.2 () in
      let est j =
        Engine.win_probability_mc ~domains:j ~rng:(Rng.create ~seed:73) ~samples:40_000 ~faults
          ~delta pattern protocol
      in
      let e1 = est 1 in
      List.iter
        (fun j ->
          Alcotest.(check (float 0.)) (Printf.sprintf "j=%d" j) e1.Mc.mean (est j).Mc.mean)
        [ 2; 4 ]);
    Alcotest.test_case "kernel keeps the closure's fault counters" `Quick (fun () ->
      let samples = 40_000 in
      let names =
        [ "ddm_engine_plays_total"; "ddm_faults_plays_total"; "ddm_faults_crashes_total";
          "ddm_faults_values_perturbed_total"; "ddm_faults_capacity_jitter_plays_total";
          "ddm_faults_injected_total"; "ddm_faults_degraded_plays_total" ]
      in
      let deltas ~domains ~faults protocol =
        with_metrics (fun () ->
          let before = List.map counter_value names in
          ignore
            (Engine.win_probability_mc ~domains ~rng:(Rng.create ~seed:75) ~samples ~faults ~delta
               pattern protocol);
          List.map2 (fun name b -> (name, counter_value name - b)) names before)
      in
      let exactly label d name v = Alcotest.(check int) (label ^ " " ^ name) v (List.assoc name d) in
      (* within z = 3.29 binomial standard deviations of its mean *)
      let near label d name ~trials ~p =
        let v = float_of_int (List.assoc name d) in
        let mean = float_of_int trials *. p in
        let sigma = sqrt (mean *. (1. -. p)) in
        Alcotest.(check bool)
          (Printf.sprintf "%s %s = %.0f vs %.0f" label name v mean)
          true
          (Float.abs (v -. mean) <= 3.29 *. sigma)
      in
      let threshold = Dist_protocol.common_threshold ~n:3 0.62 in
      let cases =
        [
          ( Fault_model.make ~crash:0.2 ~crash_mode:(Fault_model.Default_bin 0) (),
            threshold,
            fun label d ->
              near label d "ddm_faults_crashes_total" ~trials:(3 * samples) ~p:0.2;
              near label d "ddm_faults_degraded_plays_total" ~trials:samples
                ~p:(1. -. (0.8 ** 3.));
              exactly label d "ddm_faults_injected_total" (List.assoc "ddm_faults_crashes_total" d)
          );
          ( Fault_model.make ~noise:0.1 ~jitter:0.2 (),
            threshold,
            fun label d ->
              exactly label d "ddm_faults_values_perturbed_total" (3 * samples);
              exactly label d "ddm_faults_capacity_jitter_plays_total" samples;
              exactly label d "ddm_faults_injected_total" (4 * samples);
              exactly label d "ddm_faults_degraded_plays_total" samples );
          ( Fault_model.make ~noise:0.1 (),
            Dist_protocol.fair_coin ~n:3,
            fun label d -> exactly label d "ddm_faults_values_perturbed_total" (3 * samples) );
          ( Fault_model.make ~jitter:0.2 (),
            threshold,
            fun label d ->
              exactly label d "ddm_faults_values_perturbed_total" 0;
              exactly label d "ddm_faults_injected_total" samples;
              exactly label d "ddm_faults_degraded_plays_total" samples );
        ]
      in
      List.iter
        (fun (faults, protocol, check) ->
          List.iter
            (fun protocol ->
              let runs =
                List.map
                  (fun domains ->
                    let label =
                      Printf.sprintf "%s, %s, domains %d" (Dist_protocol.name protocol)
                        (Fault_model.to_string faults) domains
                    in
                    let d = deltas ~domains ~faults protocol in
                    exactly label d "ddm_engine_plays_total" samples;
                    exactly label d "ddm_faults_plays_total" samples;
                    check label d;
                    d)
                  [ 1; 4 ]
              in
              Alcotest.(check (list (pair string int)))
                (Dist_protocol.name protocol ^ ": same deltas at domains 1 and 4")
                (List.hd runs) (List.nth runs 1))
            [ protocol; hide_local_rule protocol ])
        cases);
  ]

(* ------------------------- Degradation ------------------------- *)

let degradation_tests =
  [
    Alcotest.test_case "sweep: baseline agrees, exact present, monotone" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.common_threshold ~n:3 (1. -. (1. /. sqrt 7.)) in
      let sweep () =
        Degradation.sweep ~grid_points:64 ~rng:(Rng.create ~seed:42) ~samples:30_000
          ~rates:[ 0.; 0.1; 0.25 ]
          ~model_of:(fun r -> Fault_model.make ~crash:r ~crash_mode:(Fault_model.Default_bin 0) ())
          ~delta:1. pattern protocol
      in
      let report = sweep () in
      Alcotest.(check bool) "baseline agrees" true report.Degradation.baseline_agrees;
      Alcotest.(check int) "three points" 3 (List.length report.Degradation.points);
      List.iter
        (fun (p : Degradation.point) ->
          Alcotest.(check bool) "exact fold present" true (Option.is_some p.Degradation.exact);
          Alcotest.(check bool)
            (Printf.sprintf "rate %.2f within CI of its exact fold" p.Degradation.rate)
            true
            (Mc.agrees p.Degradation.estimate (Option.get p.Degradation.exact)))
        report.Degradation.points;
      (match report.Degradation.points with
      | p0 :: _ ->
        Alcotest.(check (float 1e-12)) "rate-0 fold is the baseline"
          report.Degradation.baseline_exact
          (Option.get p0.Degradation.exact)
      | [] -> Alcotest.fail "no points");
      Alcotest.(check bool) "monotone" true (Degradation.monotone_nonincreasing report);
      (* the kernel-played sweep is reproducible per seed like any other *)
      List.iter2
        (fun (x : Degradation.point) (y : Degradation.point) ->
          Alcotest.(check (float 0.)) "identical MC means" x.Degradation.estimate.Mc.mean
            y.Degradation.estimate.Mc.mean)
        report.Degradation.points (sweep ()).Degradation.points);
    Alcotest.test_case "sweep is reproducible per seed" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.fair_coin ~n:3 in
      let run () =
        Degradation.sweep ~grid_points:16 ~rng:(Rng.create ~seed:7) ~samples:5_000
          ~rates:[ 0.; 0.2 ]
          ~model_of:(fun r -> Fault_model.make ~crash:r ~link_loss:0.1 ())
          ~delta:1. pattern protocol
      in
      let a = run () and b = run () in
      List.iter2
        (fun (x : Degradation.point) (y : Degradation.point) ->
          Alcotest.(check (float 0.)) "identical MC means" x.Degradation.estimate.Mc.mean
            y.Degradation.estimate.Mc.mean)
        a.Degradation.points b.Degradation.points;
      (* link loss is active: the model does not fold *)
      List.iter
        (fun (p : Degradation.point) ->
          Alcotest.(check bool) "no exact fold" true (Option.is_none p.Degradation.exact))
        a.Degradation.points);
    Alcotest.test_case "renderers carry every sweep point" `Quick (fun () ->
      let pattern = Comm_pattern.none ~n:3 in
      let protocol = Dist_protocol.fair_coin ~n:3 in
      let report =
        Degradation.sweep ~grid_points:16 ~rng:(Rng.create ~seed:3) ~samples:2_000
          ~rates:[ 0.; 0.5 ]
          ~model_of:(fun r -> Fault_model.make ~crash:r ~crash_mode:(Fault_model.Default_bin 0) ())
          ~delta:1. pattern protocol
      in
      let count_lines s = List.length (String.split_on_char '\n' (String.trim s)) in
      Alcotest.(check int) "table: header + 2 points" 3 (count_lines (Degradation.to_table report));
      Alcotest.(check int) "csv: header + 2 points" 3 (count_lines (Degradation.to_csv report)));
  ]

(* ------------------------- ddm chaos CLI ------------------------- *)

let ddm_exe =
  let candidates =
    [
      Filename.concat ".." (Filename.concat "bin" "ddm.exe");
      Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "ddm.exe"));
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let cli_tests =
  [
    Alcotest.test_case "ddm chaos: baseline agrees, faults counted in --metrics json" `Slow
      (fun () ->
      let out = "test_faults_chaos.out" in
      let cmd =
        Printf.sprintf "%s chaos -n 3 --crash 0.1 --samples 20000 --seed 42 --metrics json > %s 2>&1"
          (Filename.quote ddm_exe) out
      in
      Alcotest.(check int) "exit code" 0 (Sys.command cmd);
      let output = read_file out in
      Alcotest.(check bool) "baseline agreement reported" true (contains output "agrees: true");
      let injected_line =
        List.find_opt
          (fun l -> contains l "\"name\":\"ddm_faults_injected_total\"")
          (String.split_on_char '\n' output)
      in
      (match injected_line with
      | None -> Alcotest.fail "no ddm_faults_injected_total in metrics output"
      | Some l ->
        Alcotest.(check bool)
          (Printf.sprintf "nonzero injected counter in %s" l)
          false (contains l "\"value\":0}"));
      Sys.remove out);
    Alcotest.test_case "ddm chaos: default sweep is monotone" `Slow (fun () ->
      let out = "test_faults_chaos_sweep.out" in
      let cmd =
        Printf.sprintf "%s chaos -n 3 --samples 20000 --seed 42 > %s 2>&1"
          (Filename.quote ddm_exe) out
      in
      Alcotest.(check int) "exit code" 0 (Sys.command cmd);
      let output = read_file out in
      Alcotest.(check bool) "monotone verdict" true
        (contains output "degradation monotone (within MC noise): true");
      Alcotest.(check bool) "baseline agreement" true (contains output "agrees: true");
      Sys.remove out);
    Alcotest.test_case "ddm chaos has no --loss or --stale" `Quick (fun () ->
      (* chaos plays the no-communication pattern, where no input is
         revealed for a link fault to degrade *)
      List.iter
        (fun flag ->
          let cmd =
            Printf.sprintf "%s chaos -n 3 %s 0.1 > /dev/null 2>&1" (Filename.quote ddm_exe) flag
          in
          Alcotest.(check int) (flag ^ " is a usage error") 124 (Sys.command cmd))
        [ "--loss"; "--stale" ]);
  ]

(* ------------------------- sharded exact folds ------------------------- *)

(* The exact-path determinism contract on the fault side: the 2^n
   crash-subset fold and the fault grid must be worker-count invariant,
   and a sweep's exact column must not change when it goes wide. *)
let fold_par_tests =
  let n = 4 and delta = 4. /. 3. in
  let pattern = Comm_pattern.none ~n in
  let protocol = Dist_protocol.common_threshold ~n 0.62 in
  let faults = Fault_model.crash_only 0.15 in
  [
    Alcotest.test_case "2^n crash fold is bit-identical across domains 1/2/4" `Quick (fun () ->
      let inputs = [| 0.7; 0.25; 0.55; 0.4 |] in
      let fold j = Engine.win_probability_given ~domains:j ~faults ~delta pattern protocol inputs in
      let f1 = fold 1 in
      List.iter
        (fun j -> Alcotest.(check (float 0.)) (Printf.sprintf "domains=%d" j) f1 (fold j))
        [ 2; 4 ];
      (* reference: the crash-subset formula spelled out with the
         fault-free evaluator — a dropped player takes its input away, so
         each subset is the clean game of its survivors *)
      let c = faults.Fault_model.crash in
      let by_subsets = ref 0. in
      for mask = 0 to (1 lsl n) - 1 do
        let survivors = List.filter (fun i -> mask land (1 lsl i) = 0) (List.init n Fun.id) in
        let k = List.length survivors in
        let weight = (c ** float_of_int (n - k)) *. ((1. -. c) ** float_of_int k) in
        let win =
          if k = 0 then 1.
          else
            Engine.win_probability_given ~delta (Comm_pattern.none ~n:k)
              (Dist_protocol.common_threshold ~n:k 0.62)
              (Array.of_list (List.map (fun i -> inputs.(i)) survivors))
        in
        by_subsets := !by_subsets +. (weight *. win)
      done;
      Alcotest.(check bool) "matches the sequential fold" true
        (Float.abs (f1 -. !by_subsets) < 1e-14);
      (* leases beyond the 16 subsets fold nothing *)
      Alcotest.(check (float 0.)) "leases > subsets" f1
        (Engine.win_probability_given ~domains:3 ~faults ~delta pattern protocol
           inputs));
    Alcotest.test_case "fault grid is bit-identical across domains 1/2/4" `Quick (fun () ->
      let grid j =
        Engine.win_probability_grid ~points:8 ~domains:j ~faults ~delta pattern protocol
      in
      let g1 = grid 1 in
      List.iter
        (fun j -> Alcotest.(check (float 0.)) (Printf.sprintf "domains=%d" j) g1 (grid j))
        [ 2; 4 ];
      (* reference: a single-pass midpoint sum over the 8^4 cells *)
      let coord k = (float_of_int k +. 0.5) /. 8. in
      let acc = ref 0. in
      for cell = 0 to 4095 do
        let inputs = Array.init n (fun d -> coord ((cell lsr (3 * (n - 1 - d))) land 7)) in
        acc := !acc +. Engine.win_probability_given ~faults ~delta pattern protocol inputs
      done;
      Alcotest.(check bool) "matches the sequential sweep" true
        (Float.abs (g1 -. (!acc /. 4096.)) < 1e-12));
    Alcotest.test_case "fault grid cancellation reports merged progress" `Quick (fun () ->
      let calls = Atomic.make 0 in
      let cancel () = Atomic.fetch_and_add calls 1 >= 1_000 in
      try
        ignore
          (Engine.win_probability_grid ~points:8 ~domains:4 ~cancel ~faults ~delta pattern
             protocol);
        Alcotest.fail "sweep outran its cancel hook"
      with Engine.Cancelled { cells_done; cells_total } ->
        Alcotest.(check int) "total is the full grid" 4096 cells_total;
        Alcotest.(check bool)
          (Printf.sprintf "progress %d reflects completed work" cells_done)
          true
          (cells_done >= 500 && cells_done < cells_total));
    Alcotest.test_case "sweep exact column is worker-count invariant" `Quick (fun () ->
      let sweep j =
        Degradation.sweep ~grid_points:8 ~domains:j ~rng:(Rng.create ~seed:21) ~samples:2_000
          ~rates:[ 0.; 0.2 ]
          ~model_of:(fun r -> Fault_model.crash_only r)
          ~delta pattern protocol
      in
      let a = sweep 1 and b = sweep 4 in
      Alcotest.(check (float 0.)) "baseline exact" a.Degradation.baseline_exact
        b.Degradation.baseline_exact;
      List.iter2
        (fun (pa : Degradation.point) (pb : Degradation.point) ->
          Alcotest.(check (option (float 0.))) "exact point" pa.Degradation.exact
            pb.Degradation.exact;
          Alcotest.(check (float 0.)) "mc point" pa.Degradation.estimate.Mc.mean
            pb.Degradation.estimate.Mc.mean)
        a.Degradation.points b.Degradation.points);
  ]

let () =
  Alcotest.run "faults"
    [
      ("model", model_tests);
      ("engine", engine_tests);
      ("combinators", combinator_tests);
      ("kernel", kernel_tests);
      ("degradation", degradation_tests);
      ("fold-par", fold_par_tests);
      ("cli", cli_tests);
    ]
