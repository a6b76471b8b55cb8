(* Experiment harness: regenerates every table and figure of the paper's
   evaluation, plus the extension/ablation experiments from DESIGN.md.

   Usage:
     dune exec bench/main.exe                 # run all experiment groups
     dune exec bench/main.exe -- t1 x2        # run selected groups
     dune exec bench/main.exe -- t1 t3 --ledger FILE
        # also append one ddm.ledger/v1 entry for the whole run (wall
        # time, GC delta, the metrics that moved)

   Experiment ids (see DESIGN.md section 4):
     fig1 fig2  - the paper's Figures 1-2 (threshold curves for n = 3,4,5)
     t1 t2      - Section 5.2.1 / 5.2.2 case resolutions
     t3         - Theorem 4.3 (oblivious optimum, uniformity)
     t4         - knowledge-vs-obliviousness table
     l1         - Lemmas 2.4/2.5/2.7, Cor 2.6 vs Monte-Carlo
     p1         - Proposition 2.2 vs hit-or-miss volume
     x1         - communication-pattern extension (PY91 trade-off)
     x2         - float-vs-exact inclusion-exclusion ablation
     x3         - randomized symmetric rules at the n=4 inversion
     x4         - anonymity ablation: asymmetric threshold vectors
     x5         - capacity sweep: where the threshold/coin inversion lives
     x6         - scaling in n: certified optima to n=12, numeric to n=48
     x7         - unequal bin capacities (delta0 <> delta1)
     x8         - chaos: win-probability degradation under crash fault
                  injection
     x10        - parallel Monte-Carlo: lease-sharded sampling across
                  domains (worker-count bit-identity)
     x12        - parallel exact paths: lease-sharded grid cells and
                  2^n subset folds (worker-count bit-identity)
     x13        - latency telemetry soak: concurrent serve traffic across
                  every outcome, then an exact reconciliation of the
                  per-outcome latency histograms against responses_total
     x14        - batch sampling kernel: kernel-vs-closure throughput on
                  the clean and faulty MC paths, estimate agreement, and
                  worker-count bit-identity of the kernel lease merge

   -j N runs the Monte-Carlo groups (x8, x10) and the exact group (x12)
   on N worker domains; lease sharding keeps every result bit-identical
   for every N (see docs/PARALLELISM.md).

   Every group prints answers, never timings, so its output is the same
   bytes on every run and at every -j, except x13 (its burst races
   chaos-stalled workers) and x14 (whose 2x kernel/closure floor is a
   timing gate).  Serve throughput and per-layer time belong to
   perfbench and its A/B gate, bench/ab.py. *)

let section id title =
  Printf.printf "\n=============================================================\n";
  Printf.printf "[%s] %s\n" id title;
  Printf.printf "=============================================================\n"

(* -j N from the command line; None runs every lease-sharded path on
   one domain, the same output as -j 1. *)
let jobs : int option ref = ref None

(* ------------------------------------------------------------------ *)
(* Figures 1-2                                                         *)
(* ------------------------------------------------------------------ *)

let curve_table ~ns ~delta_of ~steps =
  Printf.printf "%-8s" "beta";
  List.iter
    (fun n -> Printf.printf "n=%d (d=%s)%s" n (Rat.to_string (delta_of n)) "      ")
    ns;
  print_newline ();
  for i = 0 to steps do
    let beta = float_of_int i /. float_of_int steps in
    Printf.printf "%-8.3f" beta;
    List.iter
      (fun n ->
        let d = Rat.to_float (delta_of n) in
        Printf.printf "%-16.6f" (Threshold.winning_probability_sym ~n ~delta:d beta))
      ns;
    print_newline ()
  done;
  List.iter
    (fun n ->
      let delta = delta_of n in
      let res = Symbolic.optimal_sym_threshold ~n ~delta () in
      Printf.printf "argmax n=%d: beta* = %.8f, P* = %.8f\n" n
        (Rat.to_float res.Piecewise.argmax)
        (Rat.to_float res.Piecewise.value))
    ns

let fig1 () =
  section "F1" "Winning probabilities for n = 3, 4, 5 (fixed delta = 1)";
  Printf.printf "Paper: Figure 1 plots P_n(beta) for n = 3, 4, 5. Axis scales are not\n";
  Printf.printf "recoverable from the text; we regenerate the curve family and its shape\n";
  Printf.printf "(ordering, interior maxima, endpoint values F_IH(n, delta)).\n\n";
  curve_table ~ns:[ 3; 4; 5 ] ~delta_of:(fun _ -> Rat.one) ~steps:20

let fig2 () =
  section "F2" "Winning probabilities for n = 3, 4, 5 (scaled delta = n/3)";
  Printf.printf "The paper's second figure family; capacity grows with n so the curves\n";
  Printf.printf "stay comparable (n = 3 and n = 4 are the instances of Section 5.2).\n\n";
  curve_table ~ns:[ 3; 4; 5 ] ~delta_of:(fun n -> Rat.of_ints n 3) ~steps:20

(* ------------------------------------------------------------------ *)
(* T1 / T2                                                             *)
(* ------------------------------------------------------------------ *)

let t1 () =
  section "T1" "Section 5.2.1: n = 3, delta = 1";
  let curve = Symbolic.sym_threshold_curve ~n:3 ~delta:Rat.one in
  Printf.printf "%-30s %-34s %s\n" "quantity" "paper" "measured (exact pipeline)";
  let pieces = Piecewise.pieces curve in
  let piece_str i =
    let p = List.nth pieces i in
    Poly.to_string ~var:"b" p.Piecewise.poly
  in
  Printf.printf "%-30s %-34s %s\n" "P(beta), beta <= 1/2" "1/6 + 3/2 b^2 - 1/2 b^3"
    (piece_str 0);
  Printf.printf "%-30s %-34s %s\n" "P(beta), beta > 1/2" "-11/6 + 9b - 21/2 b^2 + 7/2 b^3"
    (piece_str 2);
  let res = Piecewise.maximize curve in
  let cond =
    List.find
      (fun (s : Piecewise.stationary) ->
        Rat.compare (Rat.mid s.location.Roots.lo s.location.Roots.hi) Rat.half > 0)
      res.stationaries
  in
  Printf.printf "%-30s %-34s %s = 0\n" "optimality condition" "b^2 - 2b + 6/7 = 0"
    (Poly.to_string ~var:"b" (Symbolic.monic_condition cond.condition));
  Printf.printf "%-30s %-34s %.10f\n" "beta*" "1 - sqrt(1/7) = 0.622"
    (Rat.to_float res.argmax);
  Printf.printf "%-30s %-34s %.10f\n" "P*" "0.545" (Rat.to_float res.value);
  (* independent checks *)
  let rng = Rng.create ~seed:11 in
  let est =
    Engine.win_probability_mc ~rng ~samples:500_000 ~delta:1. (Comm_pattern.none ~n:3)
      (Dist_protocol.common_threshold ~n:3 (Rat.to_float res.argmax))
  in
  Printf.printf "%-30s %-34s %s\n" "Monte-Carlo check" "-" (Format.asprintf "%a" Mc.pp_estimate est)

let t2 () =
  section "T2" "Section 5.2.2: n = 4, delta = 4/3";
  let delta = Rat.of_ints 4 3 in
  let res = Symbolic.optimal_sym_threshold ~n:4 ~delta () in
  Printf.printf "%-30s %-34s %s\n" "quantity" "paper" "measured (exact pipeline)";
  Printf.printf "%-30s %-34s %.10f\n" "beta*" "0.678" (Rat.to_float res.Piecewise.argmax);
  Printf.printf "%-30s %-34s %.10f\n" "P*" "(not stated)" (Rat.to_float res.Piecewise.value);
  let cond =
    List.find
      (fun (s : Piecewise.stationary) ->
        Rat.compare
          (Rat.abs
             (Rat.sub (Rat.mid s.location.Roots.lo s.location.Roots.hi) res.Piecewise.argmax))
          (Rat.of_string "1/1000000")
        < 0)
      res.Piecewise.stationaries
  in
  Printf.printf "%-30s %-34s %s = 0\n" "optimality condition"
    "-(26/3)b^3+(98/3)b^2-(368/9)b-416/27" (Poly.to_string ~var:"b" cond.condition);
  (* The printed cubic has a sign typo on its constant term: scaling our
     monic condition by -26/3 recovers the paper's coefficients with
     +416/27. *)
  let ours_scaled = Poly.scale (Rat.of_string "-26/3") (Symbolic.monic_condition cond.condition) in
  let paper_fixed = Poly.of_string_list [ "416/27"; "-368/9"; "98/3"; "-26/3" ] in
  Printf.printf "%-30s %-34s %b\n" "paper cubic (sign-corrected)" "+416/27 constant term"
    (Poly.equal ours_scaled paper_fixed);
  let rng = Rng.create ~seed:12 in
  let est =
    Engine.win_probability_mc ~rng ~samples:500_000 ~delta:(4. /. 3.) (Comm_pattern.none ~n:4)
      (Dist_protocol.common_threshold ~n:4 (Rat.to_float res.Piecewise.argmax))
  in
  Printf.printf "%-30s %-34s %s\n" "Monte-Carlo check" "-" (Format.asprintf "%a" Mc.pp_estimate est)

(* ------------------------------------------------------------------ *)
(* T3 / T4                                                             *)
(* ------------------------------------------------------------------ *)

let t3 () =
  section "T3" "Theorem 4.3: the optimal oblivious algorithm is uniform (alpha = 1/2)";
  Printf.printf "%-4s %-8s %-22s %-14s %s\n" "n" "delta" "P(1/2) exact" "P(1/2) float"
    "interior stationary pts of P(alpha)";
  for n = 2 to 10 do
    let delta = Rat.of_ints n 3 in
    let exact = Oblivious.Q.winning_probability_uniform ~n ~delta in
    let sp = Oblivious.symmetric_poly ~n ~delta in
    let stationary =
      List.filter
        (fun r -> r > 1e-9 && r < 1. -. 1e-9)
        (Roots.root_floats (Poly.derivative sp) ~lo:Rat.zero ~hi:Rat.one)
    in
    Printf.printf "%-4d %-8s %-22s %-14.8f %s\n" n (Rat.to_string delta) (Rat.to_string exact)
      (Rat.to_float exact)
      (String.concat ", " (List.map (Printf.sprintf "%.6f") stationary))
  done;
  Printf.printf
    "\nEvery row's unique interior stationary point is 1/2: the optimum is uniform in n.\n";
  Printf.printf
    "Caveat recorded in DESIGN.md: optimality is within anonymous algorithms - asymmetric\n";
  Printf.printf "deterministic assignments (players hard-partitioned between bins) can beat it.\n"

let t4 () =
  section "T4" "Knowledge vs obliviousness (delta = n/3)";
  Printf.printf "%-4s %-8s %-14s %-14s %-12s %-10s %s\n" "n" "delta" "P_oblivious"
    "P_threshold" "beta*" "winner" "gap";
  for n = 2 to 10 do
    let delta = Rat.of_ints n 3 in
    let obl = Oblivious.Q.winning_probability_uniform ~n ~delta in
    let res = Symbolic.optimal_sym_threshold ~n ~delta () in
    let gap = Rat.sub res.Piecewise.value obl in
    Printf.printf "%-4d %-8s %-14.8f %-14.8f %-12.8f %-10s %+.6f\n" n (Rat.to_string delta)
      (Rat.to_float obl)
      (Rat.to_float res.Piecewise.value)
      (Rat.to_float res.Piecewise.argmax)
      (if Rat.sign gap > 0 then "threshold" else "OBLIVIOUS")
      (Rat.to_float gap)
  done;
  Printf.printf
    "\nPaper: non-oblivious improves on oblivious in both studied cases (n = 3, 4).\n";
  Printf.printf
    "Measured: true at n = 3 (0.5446 > 0.4167) but INVERTED at n = 4, delta = 4/3\n";
  Printf.printf
    "(0.42854 < 0.43133, confirmed by Monte-Carlo); see EXPERIMENTS.md for discussion.\n"

(* ------------------------------------------------------------------ *)
(* L1 / P1                                                             *)
(* ------------------------------------------------------------------ *)

let l1 () =
  section "L1" "Lemmas 2.4/2.5/2.7 and Corollary 2.6 vs simulation";
  let rng = Rng.create ~seed:21 in
  Printf.printf "%-34s %-8s %-12s %-26s %s\n" "law" "t" "closed form" "Monte-Carlo (200k)"
    "agree";
  let rows =
    [
      ("cdf U[0,.3]+U[0,.7]+U[0,1]", `Cdf [| 0.3; 0.7; 1.0 |], 1.2);
      ("cdf U[0,.5]x4", `Cdf [| 0.5; 0.5; 0.5; 0.5 |], 1.1);
      ("Irwin-Hall m=6", `Cdf (Array.make 6 1.), 2.7);
      ("shifted U[.2,1]+U[.5,1]+U[.7,1]", `Shifted [| 0.2; 0.5; 0.7 |], 2.2);
      ("shifted U[.622,1]x3", `Shifted (Array.make 3 0.622), 2.4);
    ]
  in
  List.iter
    (fun (name, law, t) ->
      let exact, est =
        match law with
        | `Cdf widths ->
          ( Uniform_sum.cdf ~widths t,
            Mc.probability ~rng ~samples:200_000 (fun rng ->
              Array.fold_left (fun acc w -> acc +. (Rng.float01 rng *. w)) 0. widths <= t) )
        | `Shifted lowers ->
          ( Uniform_sum.cdf_shifted ~lowers t,
            Mc.probability ~rng ~samples:200_000 (fun rng ->
              Array.fold_left (fun acc l -> acc +. Rng.uniform rng l 1.) 0. lowers <= t) )
      in
      Printf.printf "%-34s %-8.2f %-12.6f %-26s %b\n" name t exact
        (Format.asprintf "%a" Mc.pp_estimate est)
        (Mc.agrees est exact))
    rows;
  (* Rota's density at a few points *)
  let widths = [| 0.25; 0.5; 1.0 |] in
  Printf.printf "\nLemma 2.5 density for U[0,1/4]+U[0,1/2]+U[0,1] (exact rationals):\n";
  List.iter
    (fun t ->
      let d = Uniform_sum.Q.pdf ~widths:(Array.map Rat.of_float widths) (Rat.of_float t) in
      Printf.printf "  f(%.3f) = %-12s = %.6f\n" t (Rat.to_string d) (Rat.to_float d))
    [ 0.125; 0.5; 0.875; 1.25; 1.6 ]

let p1 () =
  section "P1" "Proposition 2.2 (volume of simplex-box intersections) vs hit-or-miss MC";
  let rng = Rng.create ~seed:31 in
  Printf.printf "%-34s %-16s %-12s %s\n" "polytope" "exact (rational)" "exact (float)"
    "MC (300k)";
  List.iter
    (fun (sigma, pi) ->
      let sr = Array.map Rat.of_float sigma and pr = Array.map Rat.of_float pi in
      let exact = Geometry.Q.sigma_pi_volume ~sigma:sr ~pi:pr in
      let fl = Geometry.sigma_pi_volume ~sigma ~pi in
      let mc =
        Geometry.mc_volume
          ~rand:(fun () -> Rng.float01 rng)
          ~samples:300_000 ~box:pi
          (Geometry.mem_sigma_pi ~sigma ~pi)
      in
      let dim = Array.length sigma in
      Printf.printf "%-34s %-16s %-12.6f %.6f\n"
        (Printf.sprintf "dim %d, sigma=%s pi=%s" dim
           (String.concat "," (List.map (Printf.sprintf "%.2g") (Array.to_list sigma)))
           (String.concat "," (List.map (Printf.sprintf "%.2g") (Array.to_list pi))))
        (Rat.to_string exact) fl mc)
    [
      ([| 1.0; 1.0 |], [| 1.0; 1.0 |]);
      ([| 1.5; 1.5 |], [| 1.0; 1.0 |]);
      ([| 1.5; 2.0; 1.0 |], [| 1.0; 0.8; 0.9 |]);
      ([| 2.0; 2.0; 2.0; 2.0 |], [| 1.0; 1.0; 1.0; 1.0 |]);
      ([| 1.25; 1.25; 1.25; 1.25; 1.25 |], [| 0.5; 0.5; 0.5; 0.5; 0.5 |]);
    ]

(* ------------------------------------------------------------------ *)
(* X1: communication patterns                                          *)
(* ------------------------------------------------------------------ *)

let x1 () =
  section "X1" "Extension: the value of communication (n = 3, delta = 1)";
  let n = 3 and delta = 1. in
  let score pattern protocol =
    let rng = Rng.create ~seed:41 in
    (Engine.win_probability_mc ~rng ~samples:500_000 ~delta pattern protocol).Mc.mean
  in
  Printf.printf "%-16s %-10s %-12s %s\n" "pattern" "messages" "P(win)" "note";
  let res = Symbolic.optimal_sym_threshold ~n:3 ~delta:Rat.one () in
  Printf.printf "%-16s %-10d %-12.5f certified exact optimum (this paper)\n" "none" 0
    (Rat.to_float res.Piecewise.value);
  (* broadcast: numerically optimized asymmetric family *)
  let bcast = Comm_pattern.broadcast ~n ~source:0 in
  let best, _ =
    Engine.optimize_family ~points:56 ~delta bcast ~family:Py91.broadcast_family
      ~x0:[| 1.0; 1.0; 1.0; -0.5; 0.3 |]
      ~bounds:[| (0., 1.); (-2., 2.); (-1., 2.); (-2., 2.); (-1., 2.) |]
      ()
  in
  Printf.printf "%-16s %-10d %-12.5f optimized 5-parameter family\n" "broadcast" 2
    (score bcast (Py91.broadcast_family best));
  (* full information greedy = feasibility bound *)
  let full = Comm_pattern.full ~n in
  Printf.printf "%-16s %-10d %-12.5f greedy partition = feasibility bound (3/4)\n" "full" 6
    (score full Py91.greedy_partition);
  Printf.printf
    "\nMonotone in communication, as in Papadimitriou-Yannakakis: information buys\n";
  Printf.printf "winning probability; the no-communication floor is the case this paper solves.\n"

(* ------------------------------------------------------------------ *)
(* X2: float-vs-exact ablation                                         *)
(* ------------------------------------------------------------------ *)

let x2 () =
  section "X2" "Ablation: float vs exact inclusion-exclusion (motivates bigint/rat)";
  Printf.printf "%-4s %-26s %-16s %s\n" "n" "P(1/2) exact" "P(1/2) float" "abs error";
  List.iter
    (fun n ->
      let delta = Rat.of_ints n 3 in
      let exact = Oblivious.Q.winning_probability_uniform ~n ~delta in
      let fl = Oblivious.winning_probability_uniform ~n ~delta:(Rat.to_float delta) in
      Printf.printf "%-4d %-26.16f %-16.10f %.3e\n" n (Rat.to_float exact) fl
        (abs_float (fl -. Rat.to_float exact)))
    [ 5; 10; 15; 20; 25; 30; 35; 40; 45; 50 ];
  Printf.printf
    "\nThe Irwin-Hall alternating sum loses roughly n log2(n) bits; at large n the\n";
  Printf.printf
    "float evaluator visibly drifts while the rational one certifies every digit.\n"

(* ------------------------------------------------------------------ *)
(* X3: randomized symmetric rules at the inversion                      *)
(* ------------------------------------------------------------------ *)

let x3 () =
  section "X3" "Can randomized symmetric rules rescue non-obliviousness at n = 4, delta = 4/3?";
  let n = 4 and delta = 4. /. 3. in
  (* Exact evaluator (Banded): conditional inputs are mixtures of uniforms,
     so the winning probability stays in closed form. *)
  let best, p_best = Banded.optimum ~n ~delta () in
  let p_coin = Oblivious.winning_probability_uniform ~n ~delta in
  let p_thresh =
    Rat.to_float (Symbolic.optimal_sym_threshold ~n ~delta:(Rat.of_ints 4 3) ()).Piecewise.value
  in
  Printf.printf "%-34s %-14s %s\n" "rule" "P(win)" "evaluation";
  Printf.printf "%-34s %-14.8f exact rational (559/1296)\n" "fair coin (oblivious optimum)" p_coin;
  Printf.printf "%-34s %-14.8f exact, Sturm-certified\n" "best single threshold" p_thresh;
  Printf.printf "%-34s %-14.8f exact mixture-of-uniforms closed form\n"
    (Printf.sprintf "best banded rule (t1=%.3f t2=%.3f q=%.3f)" best.Banded.t1 best.Banded.t2
       best.Banded.q)
    p_best;
  (* double-check the optimal banded value in exact rational arithmetic and
     by simulation *)
  let exact_rat =
    Banded.Q.winning_probability ~n ~delta:(Rat.of_ints 4 3)
      {
        Banded.t1 = Rat.of_float best.Banded.t1;
        t2 = Rat.of_float best.Banded.t2;
        q = Rat.of_float best.Banded.q;
      }
  in
  let rng = Rng.create ~seed:51 in
  let inst = Model.instance ~n ~delta in
  let est = Mc_eval.winning_probability ~rng ~samples:1_000_000 inst (Banded.to_rule best) in
  Printf.printf "%-34s %-14.8f (rational arithmetic)\n" "  cross-check" (Rat.to_float exact_rat);
  Printf.printf "%-34s %s\n" "  cross-check" (Format.asprintf "%a" Mc.pp_estimate est);
  (* for the found band, the certified exact optimal q via the q-polynomial *)
  let t1r = Rat.of_float best.Banded.t1 and t2r = Rat.of_float best.Banded.t2 in
  let qp = Banded.q_polynomial ~n:4 ~delta:(Rat.of_ints 4 3) ~t1:t1r ~t2:t2r in
  let qstar, vstar = Banded.optimal_q ~n:4 ~delta:(Rat.of_ints 4 3) ~t1:t1r ~t2:t2r in
  Printf.printf "\nexact P(q) for this band: %s\n" (Poly.to_string ~var:"q" qp);
  Printf.printf "certified optimal q = %s, P = %.10f\n"
    (Alg.to_decimal_string ~digits:12 qstar)
    (Rat.to_float vstar);
  Printf.printf
    "\nFinding: the optimal banded rule (exactly evaluated) beats the fair coin,\n";
  Printf.printf
    "while the best deterministic threshold loses to it. The paper's claim that\n";
  Printf.printf
    "input knowledge helps at n = 4 is restored by allowing randomized\n";
  Printf.printf "non-oblivious rules; the T4 inversion is an artifact of determinism.\n"

(* ------------------------------------------------------------------ *)
(* X5: capacity sweep - where does the inversion live?                 *)
(* ------------------------------------------------------------------ *)

let x5 () =
  section "X5" "Ablation: capacity sweep - threshold vs coin as delta varies";
  List.iter
    (fun n ->
      Printf.printf "\nn = %d\n%-8s %-14s %-14s %-12s %s\n" n "delta" "P_oblivious"
        "P_threshold" "beta*" "winner";
      for i = 2 to 12 do
        let delta = Rat.of_ints (i * n) 24 in
        (* delta = n * i/24, sweeping i/24 in [1/12, 1/2] per-player capacity *)
        let obl = Oblivious.Q.winning_probability_uniform ~n ~delta in
        let res = Symbolic.optimal_sym_threshold ~n ~delta () in
        Printf.printf "%-8s %-14.8f %-14.8f %-12.6f %s\n" (Rat.to_string delta)
          (Rat.to_float obl)
          (Rat.to_float res.Piecewise.value)
          (Rat.to_float res.Piecewise.argmax)
          (if Rat.compare res.Piecewise.value obl > 0 then "threshold" else "OBLIVIOUS")
      done)
    [ 3; 4 ];
  Printf.printf
    "\nThe deterministic threshold wins at small capacity (sorting big inputs apart\n";
  Printf.printf
    "matters) and loses in a mid-capacity band where the coin's symmetric split is\n";
  Printf.printf "safer - the n = 4, delta = 4/3 inversion sits inside that band.\n"

(* ------------------------------------------------------------------ *)
(* X6: scaling in n                                                    *)
(* ------------------------------------------------------------------ *)

let x6 () =
  section "X6" "Scaling: certified optima up to n = 12, numeric beyond";
  Printf.printf "%-4s %-10s %-14s %-14s %s\n" "n" "delta" "beta*" "P*" "method";
  for n = 2 to 12 do
    let delta = Rat.of_ints n 3 in
    let res = Symbolic.optimal_sym_threshold ~n ~delta () in
    Printf.printf "%-4d %-10s %-14.8f %-14.8f exact (Sturm-certified)\n" n (Rat.to_string delta)
      (Rat.to_float res.Piecewise.argmax)
      (Rat.to_float res.Piecewise.value)
  done;
  List.iter
    (fun n ->
      let delta = float_of_int n /. 3. in
      let beta, p = Threshold.optimum_sym ~points:801 ~n ~delta () in
      Printf.printf "%-4d %-10.4f %-14.8f %-14.8f numeric (grid+golden, O(n^2) eval)\n" n delta
        beta p)
    [ 16; 24; 32; 40; 48 ];
  Printf.printf
    "\n(beyond n ~ 50 the float inclusion-exclusion collapses - see X2 - so the\n";
  Printf.printf "numeric rows stop at 48; the exact evaluator keeps working at any n.)\n";
  Printf.printf
    "\nbeta* oscillates with n (capacity n/3 interacts with the integer lattice of\n";
  Printf.printf
    "inclusion-exclusion breakpoints) while P* trends upward: relative fluctuations\n";
  Printf.printf "of the two bin loads shrink as n grows.\n"

(* ------------------------------------------------------------------ *)
(* X4: the role of anonymity                                           *)
(* ------------------------------------------------------------------ *)

let x4 () =
  section "X4" "Ablation: anonymity - asymmetric threshold vectors via Theorem 5.1";
  Printf.printf
    "Theorem 5.1 evaluates ARBITRARY threshold vectors; multistart coordinate\n";
  Printf.printf
    "ascent over [0,1]^n probes whether asymmetry helps with no communication.\n\n";
  let show n delta =
    let deltaf = float_of_int n /. 3. in
    let x, v = Threshold.optimize_vector ~n ~delta:deltaf () in
    let sym = (Symbolic.optimal_sym_threshold ~n ~delta ()).Piecewise.value in
    Printf.printf "n=%d delta=%s: best vector (%s) P=%.6f | symmetric optimum %.6f -> %s\n" n
      (Rat.to_string delta)
      (String.concat ", " (List.map (Printf.sprintf "%.4f") (Array.to_list x)))
      v (Rat.to_float sym)
      (if v > Rat.to_float sym +. 1e-9 then "ASYMMETRY WINS" else "symmetric is optimal")
  in
  show 3 Rat.one;
  show 4 (Rat.of_ints 4 3);
  show 5 (Rat.of_ints 5 3);
  (* the oblivious analogue is exact: multilinearity puts the cube-global
     optimum at a vertex, i.e. the best deterministic partition *)
  Printf.printf "\noblivious analogue (exact, max_k phi(k)):\n";
  List.iter
    (fun n ->
      let delta = Rat.of_ints n 3 in
      let k, p = Oblivious.Q.optimal_partition ~n ~delta in
      Printf.printf
        "n=%d: best partition sends %d players to bin 1 -> P = %s = %.6f (coin: %.6f)\n" n k
        (Rat.to_string p) (Rat.to_float p)
        (Rat.to_float (Oblivious.Q.winning_probability_uniform ~n ~delta)))
    [ 3; 4; 5 ];
  Printf.printf
    "\nAt n = 3, delta = 1 every start converges to the symmetric beta* = 0.622: the\n";
  Printf.printf
    "paper's symmetric optimum is globally optimal among all threshold vectors. At\n";
  Printf.printf
    "n = 4, delta = 4/3 the hard 2/2 partition (1,1,0,0) achieves F(2,4/3)^2 = 49/81\n";
  Printf.printf
    "= 0.6049, dominating every anonymous rule: the paper's optimality statements\n";
  Printf.printf "implicitly quantify over anonymous (exchangeable) protocols.\n"

(* ------------------------------------------------------------------ *)
(* X7: unequal bin capacities                                          *)
(* ------------------------------------------------------------------ *)

let x7 () =
  section "X7" "Extension: unequal bin capacities (n = 3, total capacity 2)";
  Printf.printf
    "The paper fixes both capacities to delta; the framework supports distinct\n";
  Printf.printf
    "capacities with no change (the two conditional overflow events stay\n";
  Printf.printf "independent). Splitting a total capacity of 2 as (d0, 2 - d0):\n\n";
  Printf.printf "%-10s %-10s %-14s %-14s\n" "delta0" "delta1" "beta*" "P*";
  for i = 2 to 14 do
    let d0 = Rat.of_ints i 8 in
    let d1 = Rat.sub (Rat.of_int 2) d0 in
    let curve = Symbolic.sym_threshold_curve_caps ~n:3 ~delta0:d0 ~delta1:d1 in
    let res = Piecewise.maximize curve in
    Printf.printf "%-10s %-10s %-14.8f %-14.8f\n" (Rat.to_string d0) (Rat.to_string d1)
      (Rat.to_float res.Piecewise.argmax)
      (Rat.to_float res.Piecewise.value)
  done;
  Printf.printf
    "\nTwo regimes: near the symmetric split, beta* tracks the bin-0 share and P*\n";
  Printf.printf
    "peaks locally at (1,1); at extreme splits the optimum saturates (beta* -> 0 or\n";
  Printf.printf
    "1), players pile into the big bin, and P* -> F_IH(3, max(d0,d1)) - the game\n";
  Printf.printf "degenerates to a single bin.\n"

(* ------------------------------------------------------------------ *)
(* X8: chaos - degradation and degraded-mode throughput                *)
(* ------------------------------------------------------------------ *)

let x8 () =
  section "X8" "Chaos: crash-fault degradation of the paper's optimal algorithms (n = 3, delta = 1)";
  let n = 3 and delta = 1. in
  let pattern = Comm_pattern.none ~n in
  let samples = 200_000 in
  let beta_star = 1. -. (1. /. sqrt 7.) in
  let protocols =
    [
      ("common-threshold(beta*)", Dist_protocol.common_threshold ~n beta_star);
      ("fair coin (Thm 4.3)", Dist_protocol.fair_coin ~n);
    ]
  in
  Printf.printf
    "Crashed players dump their input on a stuck default route (bin 0), and the\n\
     win probability degrades.\n\n";
  Printf.printf "%-26s %-8s %-12s %s\n" "protocol" "crash" "P(win) MC" "exact fold";
  List.iter
    (fun (name, protocol) ->
      List.iter
        (fun crash ->
          let faults = Fault_model.make ~crash ~crash_mode:(Fault_model.Default_bin 0) () in
          let rng = Rng.create ~seed:81 in
          let est =
            Engine.win_probability_mc ?domains:!jobs ~rng ~samples ~faults ~delta pattern protocol
          in
          let exact = Engine.win_probability_grid ~points:64 ~faults ~delta pattern protocol in
          Printf.printf "%-26s %-8.2f %-12.6f %.6f\n" name crash est.Mc.mean exact)
        [ 0.; 0.1; 0.25 ])
    protocols;
  (* resilience combinators under lossy links: fallback keeps a
     link-dependent protocol well-defined when its expected view breaks *)
  let full = Comm_pattern.full ~n in
  let wt =
    Dist_protocol.weighted_threshold
      ~weights:(Array.make n (Array.make n (1. /. float_of_int n)))
      ~thresholds:(Array.make n 0.5)
  in
  let resilient = Dist_protocol.with_fallback ~expected:full wt in
  let faults = Fault_model.make ~link_loss:0.3 () in
  let rng = Rng.create ~seed:82 in
  let est =
    Engine.win_probability_mc ?domains:!jobs ~rng ~samples ~faults ~delta full resilient
  in
  Printf.printf
    "\nwith_fallback under 30%% link loss (weighted threshold over full info):\n\
     %-26s P(win) = %.6f (fallback = fair coin on broken views)\n"
    (Dist_protocol.name resilient) est.Mc.mean

(* ------------------------------------------------------------------ *)
(* X10: parallel Monte-Carlo - worker-count bit-identity               *)
(* ------------------------------------------------------------------ *)

let x10 () =
  section "X10" "Parallel Monte-Carlo: lease-sharded sampling across domains (n = 3, delta = 1)";
  let n = 3 and delta = 1. in
  let samples = 300_000 in
  let pattern = Comm_pattern.none ~n in
  let beta_star = 1. -. (1. /. sqrt 7.) in
  let protocol = Dist_protocol.common_threshold ~n beta_star in
  let run j =
    Engine.win_probability_mc ~domains:j ~rng:(Rng.create ~seed:101) ~samples ~delta pattern
      protocol
  in
  Printf.printf
    "Samples are partitioned into %d leases, each owning an Rng.split-derived\n\
     stream; workers steal whole leases and results merge in lease order, so the\n\
     estimate depends on (seed, leases, samples) but never on the worker count:\n\
     every row below must be bit-identical to -j 1.\n\n"
    Par_fold.leases;
  let est1 = run 1 in
  Printf.printf "%-4s %-14s %s\n" "j" "P(win) MC" "bit-identical to -j 1";
  let js = [ 1; 2; 4 ] in
  let js =
    match !jobs with Some j when not (List.mem j js) -> js @ [ j ] | _ -> js
  in
  List.iter
    (fun j ->
      let est = if j = 1 then est1 else run j in
      Printf.printf "%-4d %-14.10f %b\n" j est.Mc.mean (est.Mc.mean = est1.Mc.mean))
    js

(* ------------------------------------------------------------------ *)
(* HTTP client for the serve soak (X13)                                *)
(* ------------------------------------------------------------------ *)

(* Minimal blocking HTTP/1.1 client, enough to drive the serve loopback
   endpoint.  Send and receive are split so a burst can have many
   requests in flight at once from a single-threaded client. *)
let http_post_open ~port ~path body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let req =
    Printf.sprintf "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s" path
      (String.length body) body
  in
  let b = Bytes.of_string req in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done;
  fd

let http_read fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let buf = Buffer.create 512 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      in
      drain ();
      let s = Buffer.contents buf in
      let status = try int_of_string (String.sub s 9 3) with _ -> 0 in
      let rec find i =
        if i + 3 >= String.length s then String.length s
        else if String.sub s i 4 = "\r\n\r\n" then i + 4
        else find (i + 1)
      in
      let i = find 0 in
      (status, String.sub s i (String.length s - i)))

let http_post ~port ~path body = http_read (http_post_open ~port ~path body)

(* ------------------------------------------------------------------ *)
(* X12: parallel exact paths - worker-count bit-identity              *)
(* ------------------------------------------------------------------ *)

let x12 () =
  section "X12" "Parallel exact paths: lease-sharded grid cells and 2^n subset folds";
  Printf.printf
    "Exact work is sharded by index range: grid cells (row-major order) and\n\
     crash/decision subsets (by mask) are split into %d leases whose partial\n\
     sums merge in lease order.  The value depends on (leases, work) but never\n\
     on the worker count, so every row below must be bit-identical to -j 1.\n\n"
    Par_fold.leases;
  let js = [ 1; 2; 4 ] in
  let js =
    match !jobs with Some j when not (List.mem j js) -> js @ [ j ] | _ -> js
  in
  let table name work_desc run =
    let v1 = run 1 in
    Printf.printf "%s (%s)\n" name work_desc;
    Printf.printf "  %-4s %-18s %s\n" "j" "P(win) exact" "bit-identical to -j 1";
    List.iter
      (fun j ->
        let v = if j = 1 then v1 else run j in
        Printf.printf "  %-4d %-18.12f %b\n" j v (v = v1))
      js;
    print_newline ()
  in
  let pattern = Comm_pattern.none ~n:3 in
  let protocol = Dist_protocol.common_threshold ~n:3 (1. -. (1. /. sqrt 7.)) in
  table "Engine.win_probability_grid" "n = 3, 48^3 = 110,592 cells" (fun j ->
      Engine.win_probability_grid ~points:48 ~domains:j ~delta:1. pattern protocol);
  let a = Array.init 14 (fun i -> 0.25 +. (0.035 *. float_of_int i)) in
  table "Threshold.winning_probability" "n = 14, 2^14 = 16,384 subsets, O(3^n) work" (fun j ->
      Threshold.winning_probability ~domains:j ~delta:(14. /. 3.) a);
  let pat12 = Comm_pattern.none ~n:12 in
  let proto12 = Dist_protocol.common_threshold ~n:12 0.55 in
  let faults = Fault_model.crash_only 0.12 in
  let inputs = Array.init 12 (fun i -> 0.2 +. (0.06 *. float_of_int i)) in
  table "Engine.win_probability_given ~faults" "n = 12, 2^12 = 4,096 crash masks" (fun j ->
      Engine.win_probability_given ~domains:j ~faults ~delta:4. pat12 proto12 inputs)

(* ------------------------------------------------------------------ *)
(* X13: latency telemetry soak — per-outcome histograms reconcile      *)
(* ------------------------------------------------------------------ *)

let x13 () =
  section "X13" "latency telemetry soak: per-outcome histograms reconcile with responses";
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  (* The soak reads its own counts as deltas against the registry at its
     start: a reset would wipe what earlier experiments recorded for the
     run's single ledger entry. *)
  let base = Metrics.snapshot () in
  let value_in samples name =
    List.find_map (fun (s : Metrics.sample) -> if s.name = name then Some s.value else None) samples
  in
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled was_enabled)
    (fun () ->
      let cfg =
        {
          Serve.default_config with
          Serve.workers = 2;
          queue_depth = 4;
          default_budget_ms = 30_000;
          chaos =
            Some
              { Serve.slow_rate = 0.25; slow_s = 0.15; panic_rate = 0.; diskfail_rate = 0.; seed = 13 };
        }
      in
      match Serve.start cfg with
      | Error e -> Printf.printf "serve failed to start: %s\n" e
      | Ok t ->
        let port = Serve.port t in
        let keys =
          List.init 20 (fun i ->
            Printf.sprintf "{\"rule\":\"threshold\",\"n\":6,\"params\":%.3f}"
              (0.30 +. (0.02 *. float_of_int i)))
        in
        (* cold then warm: every key solved once, then served from cache *)
        List.iter (fun b -> ignore (http_post ~port ~path:"/eval" b)) keys;
        List.iter (fun b -> ignore (http_post ~port ~path:"/eval" b)) keys;
        (* concurrent burst of fresh keys far past the 4-deep watermark,
           against workers stalled by the chaos knob — colds and sheds mix,
           with many domains observing terminals at once *)
        let burst =
          List.init 16 (fun i ->
            Printf.sprintf "{\"rule\":\"threshold\",\"n\":3,\"params\":%.4f}"
              (0.21 +. (0.011 *. float_of_int i)))
        in
        let fds = List.map (fun b -> http_post_open ~port ~path:"/eval" b) burst in
        let statuses = List.map (fun fd -> fst (http_read fd)) fds in
        let count c = List.length (List.filter (( = ) c) statuses) in
        Printf.printf "burst (16 in-flight): 200:%d 429:%d other:%d\n" (count 200) (count 429)
          (List.length statuses - count 200 - count 429);
        (* one malformed body exercises the error outcome *)
        ignore (http_post ~port ~path:"/eval" "{not json");
        Serve.stop t;
        let now = Metrics.snapshot () in
        let hist name =
          match (value_in now name, value_in base name) with
          | Some (Metrics.Histogram_v h), Some (Metrics.Histogram_v h0) ->
            (h.bounds, Array.map2 ( - ) h.counts h0.counts, h.sum -. h0.sum, h.count - h0.count)
          | _ -> ([||], [| 0 |], 0., 0)
        in
        let counter name =
          match (value_in now name, value_in base name) with
          | Some (Metrics.Counter_v v), Some (Metrics.Counter_v v0) -> v - v0
          | _ -> 0
        in
        let row ?(scale = 1e3) label (bounds, counts, sum, count) =
          let q p = Export.histogram_quantile ~bounds ~counts p in
          Printf.printf "  %-24s %8d %10.3f %10.2f %10.2f %10.2f\n" label count sum
            (scale *. q 0.5) (scale *. q 0.99) (scale *. q 0.999)
        in
        Printf.printf "\n%-26s %8s %10s %10s %10s %10s\n" "phase" "count" "sum" "p50(ms)"
          "p99(ms)" "p999(ms)";
        List.iter
          (fun n -> row n (hist ("ddm_serve_" ^ n ^ "_seconds")))
          [ "queue_wait"; "solve"; "cache_lookup" ];
        row ~scale:1. "budget_used (ratio)" (hist "ddm_serve_budget_used_ratio");
        Printf.printf "\n%-26s %8s %10s %10s %10s %10s\n" "outcome" "count" "sum" "p50(ms)"
          "p99(ms)" "p999(ms)";
        let labels =
          [ "hit_lru"; "hit_disk"; "cold"; "shed"; "expired_queued"; "timeout"; "error" ]
        in
        List.iter (fun l -> row l (hist ("ddm_serve_request_seconds_" ^ l))) labels;
        row "all outcomes" (hist "ddm_serve_request_seconds");
        let responses = counter "ddm_serve_responses_total" in
        let outcome_total =
          List.fold_left
            (fun acc l ->
              let _, _, _, c = hist ("ddm_serve_request_seconds_" ^ l) in
              acc + c)
            0 labels
        in
        let _, _, _, total_c = hist "ddm_serve_request_seconds" in
        let _, _, _, budget_c = hist "ddm_serve_budget_used_ratio" in
        let ok = outcome_total = responses && total_c = responses && budget_c = responses in
        Printf.printf
          "\nreconcile: responses_total=%d sum(outcomes)=%d all-outcome=%d budget_used=%d -> %s\n"
          responses outcome_total total_c budget_c
          (if ok then "EXACT" else "MISMATCH");
        if not ok then failwith "x13: histogram totals do not reconcile with responses_total")

(* ------------------------------------------------------------------ *)
(* X14: batch sampling kernel - throughput, agreement, bit-identity    *)
(* ------------------------------------------------------------------ *)

(* A kernel that silently stops being picked reads ~1x; on a shared 2-vCPU
   host the rows read 4-8x. *)
let min_speedup = 2.

let x14 () =
  section "X14" "Batch sampling kernel vs closure Monte-Carlo (n = 3, delta = 1)";
  let n = 3 and delta = 1. in
  let samples = 400_000 in
  let pattern = Comm_pattern.none ~n in
  let beta_star = 1. -. (1. /. sqrt 7.) in
  Printf.printf
    "The kernel replaces the per-play closure walk with chunked
structure-of-arrays sampling and a fused accumulator (docs/KERNEL.md).
The engine picks it for every local rule on the no-communication
pattern; the closure column runs the same protocol with its local rule
hidden, which sends the engine down the per-play path.  The kernel
draws from a splitmix fill stream seeded off the same Rng, so at a
fixed seed the two estimates are statistically identical (same model,
independent randomness), not byte-identical; each pair below must
agree within its 95%% CIs, and the kernel must run at least %.0fx the
closure's samples/sec (each side timed as the best of 3).\n\n" min_speedup;
  (* best of 3: the estimate is the same every time at a fixed seed, and
     the minimum is the timing least disturbed by the host *)
  let time f =
    let once () =
      let t0 = Trace.now_mono_s () in
      let v = f () in
      (v, Trace.now_mono_s () -. t0)
    in
    let runs = List.init 3 (fun _ -> once ()) in
    (fst (List.hd runs), List.fold_left (fun best (_, dt) -> Float.min best dt) infinity runs)
  in
  let hide p =
    Dist_protocol.make ~name:(Dist_protocol.name p) (Dist_protocol.decide p)
  in
  let faults = Fault_model.make ~crash:0.1 ~noise:0.05 ~jitter:0.1 () in
  let rows =
    [
      ("threshold(beta*)", 141, None, Dist_protocol.common_threshold ~n beta_star);
      ("fair coin", 142, None, Dist_protocol.fair_coin ~n);
      ("faulty threshold", 143, Some faults, Dist_protocol.common_threshold ~n beta_star);
    ]
  in
  Printf.printf "%-18s %-13s %-13s %-9s %-10s %s\n" "workload" "closure s/s" "kernel s/s"
    "speedup" "|dP|" "CIs agree";
  let failures =
    List.filter_map
      (fun (name, seed, faults, protocol) ->
        let run protocol () =
          Engine.win_probability_mc ~rng:(Rng.create ~seed) ~samples ?faults ~delta pattern protocol
        in
        let est_c, dt_c = time (run (hide protocol)) in
        let est_k, dt_k = time (run protocol) in
        let rate dt = if dt > 0. then float_of_int samples /. dt else 0. in
        let speedup = dt_c /. Float.max 1e-9 dt_k in
        let agree = Mc.agrees est_k est_c.Mc.mean && Mc.agrees est_c est_k.Mc.mean in
        Printf.printf "%-18s %-13.0f %-13.0f %-9s %-10.6f %b\n" name (rate dt_c) (rate dt_k)
          (Printf.sprintf "%.2fx" speedup)
          (Float.abs (est_k.Mc.mean -. est_c.Mc.mean))
          agree;
        if speedup < min_speedup || not agree then
          Some (Printf.sprintf "%s (%.2fx, CIs agree: %b)" name speedup agree)
        else None)
      rows
  in
  (* the kernel rides the same lease sharding as the closure path: the
     estimate depends on (seed, leases, samples), never the worker count *)
  let kernel_par j =
    let rng = Rng.create ~seed:141 in
    Engine.win_probability_mc ~domains:j ~rng ~samples ~delta pattern
      (Dist_protocol.common_threshold ~n beta_star)
  in
  let e1 = kernel_par 1 in
  Printf.printf "\nkernel lease merge, worker-count bit-identity (vs -j 1):";
  let js = [ 2; 4 ] in
  let js = match !jobs with Some j when not (List.mem j (1 :: js)) -> js @ [ j ] | _ -> js in
  List.iter (fun j -> Printf.printf "  -j %d: %b" j ((kernel_par j).Mc.mean = e1.Mc.mean)) js;
  print_newline ();
  if failures <> [] then
    failwith
      (Printf.sprintf "x14: kernel below the %.0fx floor or CIs disagree: %s" min_speedup
         (String.concat "; " failures))

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let groups =
  [
    ("fig1", fig1); ("fig2", fig2); ("t1", t1); ("t2", t2); ("t3", t3); ("t4", t4);
    ("l1", l1); ("p1", p1); ("x1", x1); ("x2", x2); ("x3", x3); ("x4", x4);
    ("x5", x5); ("x6", x6); ("x7", x7); ("x8", x8); ("x10", x10); ("x12", x12);
    ("x13", x13); ("x14", x14);
  ]

(* Fail before the experiments run, not after tens of seconds of work. *)
let check_writable file =
  match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 file with
  | oc -> close_out oc
  | exception Sys_error msg ->
    Printf.eprintf "--ledger: cannot write %s (%s)\n" file msg;
    exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flag_with_value flag docv args =
    let rec split acc = function
      | f :: v :: rest when f = flag -> (Some v, List.rev_append acc rest)
      | [ f ] when f = flag ->
        Printf.eprintf "%s requires a %s argument\n" flag docv;
        exit 2
      | a :: rest -> split (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    split [] args
  in
  let ledger_file, args = flag_with_value "--ledger" "FILE" args in
  let jobs_str, args = flag_with_value "-j" "positive integer" args in
  (match jobs_str with
  | None -> ()
  | Some s -> (
    match int_of_string_opt s with
    | Some k when k > 0 -> jobs := Some k
    | _ ->
      Printf.eprintf "-j requires a positive integer (got %S)\n" s;
      exit 2));
  let to_run =
    if args = [] then groups
    else
      List.map
        (fun id ->
          match List.assoc_opt id groups with
          | Some f -> (id, f)
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s --ledger FILE -j N\n" id
              (String.concat " " (List.map fst groups));
            exit 2)
        args
  in
  let run_all () = List.iter (fun (_, f) -> f ()) to_run in
  (match ledger_file with
  | None -> run_all ()
  | Some file ->
    check_writable file;
    (* one registry for the whole run, so the entry's metrics cover the
       same experiments as its wall time and GC delta *)
    Metrics.set_enabled true;
    Ledger.recording ~file ~command:"bench" ~argv:(List.tl (Array.to_list Sys.argv)) run_all);
  print_newline ()
