(* ddm: command-line driver for the distributed decision-making library.

   Subcommands:
     oblivious  - optimal oblivious algorithm for an instance (Theorem 4.3)
     threshold  - certified optimal single-threshold algorithm (Section 5.2)
     curve      - CSV of the winning-probability curve beta |-> P_n(beta)
     eval       - evaluate a given rule exactly and by Monte-Carlo
     simulate   - run the distributed system and report outcome statistics
     chaos      - fault-injection sweep: win-probability degradation curves
     tradeoff   - oblivious-vs-threshold table across n *)

open Cmdliner

let delta_conv =
  let parse s =
    try Ok (Rat.of_string s) with Invalid_argument _ | Failure _ | Division_by_zero -> Error (`Msg (Printf.sprintf "bad rational %S" s))
  in
  Arg.conv (parse, Rat.pp)

(* Strictly-positive integer option values; a nonpositive count would loop
   forever or blow up deep inside the engine, so reject it at the CLI. *)
let pos_int what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%s must be a positive integer (got %d)" what v))
    | None -> Error (`Msg (Printf.sprintf "bad %s %S: expected a positive integer" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Values in [0,1]: fault rates, thresholds, bin-0 probabilities.  Junk
   (nan included) is rejected at parse time, a usage error, instead of
   surfacing a library validation exception as an internal error. *)
let rate_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v >= 0. && v <= 1. -> Ok v
    | Some v -> Error (`Msg (Printf.sprintf "%s must be in [0,1] (got %g)" what v))
    | None -> Error (`Msg (Printf.sprintf "bad %s %S: expected a value in [0,1]" what s))
  in
  Arg.conv (parse, fun ppf v -> Format.fprintf ppf "%g" v)

let n_arg =
  Arg.(value & opt (pos_int "player count") 3 & info [ "n" ] ~docv:"N" ~doc:"Number of players.")

let delta_arg =
  Arg.(
    value
    & opt (some delta_conv) None
    & info [ "d"; "delta" ] ~docv:"DELTA"
        ~doc:"Bin capacity as a rational, e.g. 1, 4/3, 0.75. Defaults to n/3.")

(* The seed the subcommand parsed, for --ledger.  Cmdliner evaluates every
   argument term before the observability wrapper runs, so the wrapper
   reads the value the run will use, default and abbreviations included. *)
let parsed_seed = ref None

let seed_arg =
  Term.(
    const (fun seed ->
        parsed_seed := Some seed;
        seed)
    $ Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed."))

let samples_arg =
  Arg.(
    value
    & opt (pos_int "sample count") 200_000
    & info [ "samples" ] ~docv:"K" ~doc:"Monte-Carlo plays.")

(* Every Monte-Carlo path runs over lease-owned Rng.split streams and
   every exact path (grid cells, 2^n subset folds, sweep points) over
   index-range leases, each merging per-lease results in lease order — so
   outputs depend only on (seed, work), never on -j K, and
   omitting -j is -j 1.  See docs/PARALLELISM.md. *)
let jobs_arg =
  Arg.(
    value
    & opt (pos_int "worker count") 1
    & info [ "j"; "jobs" ] ~docv:"J"
        ~doc:
          "Worker domains for the Monte-Carlo $(i,and) exact paths (grid integration, the \
           threshold 2^n subset fold, chaos sweeps). Results are bit-identical for every \
           $(docv) at a fixed seed (lease-sharded work).")

let resolve_delta n = function Some d -> d | None -> Rat.of_ints n 3

(* ------------------------- observability ------------------------- *)

let metrics_arg =
  Arg.(
    value
    & opt
        (some (enum [ ("table", Export.Table); ("json", Export.Json); ("prom", Export.Prometheus) ]))
        None
    & info [ "metrics" ] ~docv:"FMT"
        ~doc:
          "Enable instrumentation and print a metrics snapshot after the run: $(b,table) \
           (aligned human table), $(b,json) (one JSON object per line) or $(b,prom) \
           (Prometheus text exposition).")

let trace_arg =
  Arg.(
    value
    & flag
    & info [ "trace" ]
        ~doc:
          "Enable span tracing and print the recorded span tree plus a per-span-name \
           duration/allocation profile after the run.")

let ledger_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Append one ddm.ledger/v1 JSONL record for this invocation (command, argv, seed, git \
           revision, monotonic wall time, GC allocation stats, metrics snapshot) to $(docv). \
           Implies instrumentation.")

let obs_listen_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "obs-listen" ] ~docv:"PORT"
        ~doc:
          "Serve the live observability plane on 127.0.0.1:$(docv) for the duration of the run: \
           GET /metrics (Prometheus text exposition of the live counters), /healthz, /runs \
           (ledger tail as JSON), /snapshot (metrics + span profile + history as JSON). \
           $(docv) 0 picks an ephemeral port (printed on stderr). Implies instrumentation.")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable span tracing and write a Chrome trace-event JSON file to $(docv) after the \
           run: one track per domain, GC allocation deltas as event args, sampled counters as \
           counter tracks. Load it at https://ui.perfetto.dev or chrome://tracing.")

let log_arg =
  Arg.(
    value
    & opt
        (some (enum [ ("debug", Logx.Debug); ("info", Logx.Info); ("warn", Logx.Warn); ("error", Logx.Error) ]))
        None
    & info [ "log" ] ~docv:"LEVEL"
        ~doc:
          "Emit structured key=value log records at $(docv) ($(b,debug), $(b,info), $(b,warn), \
           $(b,error)) and above to stderr. Off by default (and allocation-free when off).")

let log_json_arg =
  Arg.(
    value
    & flag
    & info [ "log-json" ]
        ~doc:"Render log records as JSON lines instead of the human format (implies --log info \
              unless --log is given).")

(* --log LEVEL sets the level; --log-json switches the format and, alone,
   logs at info. *)
let set_logging log_level log_json =
  (match (log_level, log_json) with
  | (Some _ as l), _ -> Logx.set_level l
  | None, true -> Logx.set_level (Some Logx.Info)
  | None, false -> ());
  if log_json then Logx.set_format Logx.Json

(* SIGINT and SIGTERM request a stop from the moment this is called; the
   returned function sleeps until one arrives or [duration] seconds pass. *)
let stop_on_signal () =
  let stop = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  (try Sys.set_signal Sys.sigint handler with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm handler with Invalid_argument _ | Sys_error _ -> ());
  fun ~duration ->
    let t0 = Unix.gettimeofday () in
    let expired () =
      match duration with Some d -> Unix.gettimeofday () -. t0 >= d | None -> false
    in
    while (not (Atomic.get stop)) && not (expired ()) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done

(* Every subcommand is wrapped so the observability switches work
   uniformly: enable them, optionally start the live HTTP plane and the
   metrics sampler, run, then write the requested reports/exports and shut
   the plane down.  The Chrome trace and the server teardown run even when
   the subcommand raises, so a crashed run still leaves its trace file. *)
let with_obs metrics trace ledger obs_listen trace_out log_level log_json run =
  if
    Option.is_some metrics || Option.is_some ledger || Option.is_some obs_listen
    || Option.is_some trace_out
  then Metrics.set_enabled true;
  if trace || Option.is_some trace_out then Trace.set_enabled true;
  set_logging log_level log_json;
  let command = if Array.length Sys.argv > 1 then Sys.argv.(1) else "ddm" in
  let server =
    match obs_listen with
    | None -> None
    | Some port -> (
      match Httpd.start ?ledger_file:ledger ~port () with
      | Ok s ->
        Printf.eprintf "obs: listening on http://127.0.0.1:%d\n%!" (Httpd.port s);
        Some s
      | Error msg ->
        Printf.eprintf "ddm: cannot listen on 127.0.0.1:%d: %s\n%!" port msg;
        exit 2)
  in
  if Option.is_some server || Option.is_some trace_out then Snapring.start ();
  if Logx.would_log Logx.Info then
    Logx.info "ddm.start"
      [ ("command", Logx.Str command);
        ("argv", Logx.Str (String.concat " " (List.tl (Array.to_list Sys.argv)))) ];
  Fun.protect
    ~finally:(fun () ->
      if Snapring.running () then Snapring.stop ();
      (match trace_out with
      | Some file ->
        Chrome_trace.write ~file ~counters:(Snapring.samples ()) (Trace.spans ());
        Printf.eprintf "obs: wrote Chrome trace to %s\n%!" file
      | None -> ());
      Option.iter Httpd.stop server)
    (fun () ->
      match ledger with
      | None -> run ()
      | Some file ->
        let argv = List.tl (Array.to_list Sys.argv) in
        Ledger.recording ~file ~command ~argv ?seed:!parsed_seed run);
  if Logx.would_log Logx.Info then Logx.info "ddm.done" [ ("command", Logx.Str command) ];
  if trace then print_string (Trace.report ());
  (match metrics with
  | Some fmt -> print_string (Export.render fmt (Metrics.snapshot ()))
  | None -> ())

let obs_term run_term =
  Term.(
    const with_obs $ metrics_arg $ trace_arg $ ledger_arg $ obs_listen_arg $ trace_out_arg
    $ log_arg $ log_json_arg $ run_term)

(* ------------------------- oblivious ------------------------- *)

let oblivious_cmd =
  let run n delta () =
    let delta = resolve_delta n delta in
    let p = Oblivious.Q.winning_probability_uniform ~n ~delta in
    Printf.printf "instance: n = %d, delta = %s\n" n (Rat.to_string delta);
    Printf.printf "optimal oblivious algorithm: alpha_i = 1/2 for all players (Theorem 4.3)\n";
    Printf.printf "winning probability: %s = %.10f\n" (Rat.to_string p) (Rat.to_float p);
    let rho = Oblivious.rho_condition_poly ~n ~delta in
    Printf.printf "stationarity polynomial in rho = alpha/(1-alpha): %s\n"
      (Poly.to_string ~var:"rho" rho);
    Printf.printf "rho = 1 is a root (checks Theorem 4.3): %b\n"
      (Rat.is_zero (Poly.eval rho Rat.one))
  in
  Cmd.v
    (Cmd.info "oblivious" ~doc:"Optimal oblivious algorithm for an instance (Theorem 4.3).")
    (obs_term Term.(const run $ n_arg $ delta_arg))

(* ------------------------- threshold ------------------------- *)

let threshold_cmd =
  let run n delta show_pieces () =
    let delta = resolve_delta n delta in
    Printf.printf "instance: n = %d, delta = %s\n" n (Rat.to_string delta);
    let curve = Symbolic.sym_threshold_curve ~n ~delta in
    if show_pieces then begin
      Printf.printf "exact piecewise polynomial P(beta):\n";
      List.iter
        (fun (p : Piecewise.piece) ->
          Printf.printf "  [%s, %s]: %s\n" (Rat.to_string p.lo) (Rat.to_string p.hi)
            (Poly.to_string ~var:"b" p.poly))
        (Piecewise.pieces curve)
    end;
    let res = Piecewise.maximize curve in
    Printf.printf "certified optimum: beta* = %.12f, P* = %.12f\n"
      (Rat.to_float res.Piecewise.argmax)
      (Rat.to_float res.Piecewise.value);
    List.iter
      (fun (s : Piecewise.stationary) ->
        let m = Rat.mid s.location.Roots.lo s.location.Roots.hi in
        Printf.printf "stationary point near %.8f: %s = 0 (P = %.8f)\n" (Rat.to_float m)
          (Poly.to_string ~var:"b" (Symbolic.monic_condition s.condition))
          (Rat.to_float s.value))
      res.stationaries
  in
  let pieces_arg =
    Arg.(value & flag & info [ "pieces" ] ~doc:"Also print the exact piecewise polynomial.")
  in
  Cmd.v
    (Cmd.info "threshold"
       ~doc:"Certified optimal single-threshold algorithm (Theorem 5.1 / Section 5.2).")
    (obs_term Term.(const run $ n_arg $ delta_arg $ pieces_arg))

(* ------------------------- certify ------------------------- *)

let certify_cmd =
  let run n delta digits () =
    let delta = resolve_delta n delta in
    Printf.printf "instance: n = %d, delta = %s\n" n (Rat.to_string delta);
    let res = Symbolic.optimal_sym_threshold_certified ~n ~delta () in
    Printf.printf "beta* = %s  (certified to %d decimals)\n"
      (Alg.to_decimal_string ~digits res.Piecewise.arg)
      digits;
    (match Alg.to_rat_opt res.Piecewise.arg with
    | Some r -> Printf.printf "beta* is exactly the rational %s\n" (Rat.to_string r)
    | None ->
      Printf.printf "beta* is algebraic: root of %s\n"
        (Poly.to_string ~var:"b" (Alg.polynomial res.Piecewise.arg));
      let approx =
        Rat.best_approximation ~max_den:(Bigint.of_int 100000)
          (Rat.of_float (Alg.to_float res.Piecewise.arg))
      in
      Printf.printf "best rational approximation (den <= 10^5): %s\n" (Rat.to_string approx));
    let v = res.Piecewise.value_enclosure in
    Printf.printf "P* in [%s,\n      %s]\n"
      (Rat.to_decimal_string ~digits v.Interval.lo)
      (Rat.to_decimal_string ~digits v.Interval.hi)
  in
  let digits_arg =
    Arg.(
      value
      & opt (pos_int "digit count") 30
      & info [ "digits" ] ~docv:"D" ~doc:"Certified decimal digits.")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Certified optimal threshold as an exact algebraic number, with interval-arithmetic \
          value enclosure (no floating point in the comparisons).")
    (obs_term Term.(const run $ n_arg $ delta_arg $ digits_arg))

(* ------------------------- curve ------------------------- *)

(* Each row is the exact ℚ value at β = i/steps, printed as a float: the
   float collapse cancels catastrophically from n ≈ 12 on (at n = 60 it
   reads 1.2e-5 where the exact value is 0.6057). *)
let curve_cmd =
  let run n delta steps () =
    let delta = resolve_delta n delta in
    Printf.printf "beta,P\n";
    for i = 0 to steps do
      let p = Threshold.Q.winning_probability_sym ~n ~delta (Rat.of_ints i steps) in
      Printf.printf "%.6f,%.10f\n" (float_of_int i /. float_of_int steps) (Rat.to_float p)
    done
  in
  let steps_arg =
    Arg.(
      value & opt (pos_int "step count") 100 & info [ "steps" ] ~docv:"S" ~doc:"Grid resolution.")
  in
  Cmd.v
    (Cmd.info "curve"
       ~doc:
         "CSV of the symmetric-threshold winning-probability curve, each row evaluated exactly \
          over the rationals and printed as a float. Exact rows cost time that grows with n: \
          about 1.4 s for $(b,-n 60 --steps 10) and half a minute at the default 100 steps.")
    (obs_term Term.(const run $ n_arg $ delta_arg $ steps_arg))

(* ------------------------- eval ------------------------- *)

let params_arg =
  Arg.(
    value
    & opt (list (rate_conv "parameter")) []
    & info [ "params" ] ~docv:"P1,P2,..."
        ~doc:"Per-player parameters in [0,1] (threshold or bin-0 probability). A single value \
              is replicated to all players.")

(* --params checked against the player count: a length other than 0, 1
   or n is a usage error. *)
let player_params_arg =
  let check n params =
    match List.length params with
    | len when len <= 1 || len = n -> Ok params
    | len -> Error (`Msg (Printf.sprintf "--params has %d values; give 1 or n = %d" len n))
  in
  Term.(term_result ~usage:true (const check $ n_arg $ params_arg))

let rule_arg =
  Arg.(
    value
    & opt (enum [ ("threshold", `Threshold); ("oblivious", `Oblivious) ]) `Threshold
    & info [ "rule" ] ~docv:"RULE" ~doc:"Rule family: threshold or oblivious.")

let expand_params n = function
  | [] -> Array.make n 0.5
  | [ v ] -> Array.make n v
  | l -> Array.of_list l

let eval_cmd =
  let run n delta rule params samples seed jobs () =
    let delta = resolve_delta n delta in
    let deltaf = Rat.to_float delta in
    let p = expand_params n params in
    let exact, model_rule =
      match rule with
      | `Threshold ->
        (* -j shards the Theorem 5.1 2^n subset fold; the value is
           bit-identical for every worker count. *)
        (Threshold.winning_probability ~domains:jobs ~delta:deltaf p, Model.Single_threshold p)
      | `Oblivious -> (Oblivious.winning_probability ~delta:deltaf p, Model.Oblivious p)
    in
    Printf.printf "instance: n = %d, delta = %s\n" n (Rat.to_string delta);
    Printf.printf "exact winning probability (Theorem %s): %.10f\n"
      (match rule with `Threshold -> "5.1" | `Oblivious -> "4.1")
      exact;
    let rng = Rng.create ~seed in
    let inst = Model.instance ~n ~delta:deltaf in
    let est = Mc_eval.winning_probability ~domains:jobs ~rng ~samples inst model_rule in
    Printf.printf "Monte-Carlo (%d plays): %s\n" samples (Format.asprintf "%a" Mc.pp_estimate est);
    Printf.printf "closed form inside 95%% interval: %b\n" (Mc.agrees est exact)
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a decision rule exactly and by simulation.")
    (obs_term
       Term.(
         const run $ n_arg $ delta_arg $ rule_arg $ player_params_arg $ samples_arg $ seed_arg $ jobs_arg))

(* ------------------------- simulate ------------------------- *)

let simulate_cmd =
  let run n delta rule params samples seed jobs hist_bins () =
    let delta = Rat.to_float (resolve_delta n delta) in
    let p = expand_params n params in
    let protocol =
      match rule with
      | `Threshold -> Dist_protocol.single_threshold p
      | `Oblivious -> Dist_protocol.oblivious p
    in
    let rng = Rng.create ~seed in
    let pattern = Comm_pattern.none ~n in
    (* a threshold or oblivious protocol without communication is the
       paper's game, so it always has a kernel spec; the engine's spec
       keeps the engine's play counters *)
    let spec = Option.get (Engine.kernel_spec ~delta pattern protocol) in
    let hist = Option.map (fun bins -> (bins, 0., 2. *. delta)) hist_bins in
    let r = Mc_kernel.run ?hist ~loads:true ~domains:jobs ~rng ~samples spec in
    let f c = float_of_int c /. float_of_int samples in
    Printf.printf "protocol: %s over %s\n" (Dist_protocol.name protocol)
      (Comm_pattern.to_string pattern);
    Printf.printf "plays: %d   P(win) = %.6f\n" samples (f r.Mc_kernel.wins);
    Printf.printf "overflow rates: bin0 %.6f, bin1 %.6f\n" (f r.Mc_kernel.over0)
      (f r.Mc_kernel.over1);
    Printf.printf "max-load: mean %.4f, stddev %.4f\n" (Stats.mean r.Mc_kernel.loads)
      (Stats.stddev r.Mc_kernel.loads);
    match r.Mc_kernel.hist with
    | None -> ()
    | Some h ->
      let bins = Array.length h.Stats.counts in
      Printf.printf "max-load histogram (%d bins over [0, %g], %d outlier%s above the range):\n"
        bins h.Stats.hi h.Stats.outliers
        (if h.Stats.outliers = 1 then "" else "s");
      let peak = Array.fold_left max 1 h.Stats.counts in
      for i = 0 to bins - 1 do
        Printf.printf "  %8.4f %9.5f %8d %s\n" (Stats.bin_center h i) (Stats.histogram_density h i)
          h.Stats.counts.(i)
          (String.make (40 * h.Stats.counts.(i) / peak) '#')
      done
  in
  let hist_arg =
    Arg.(
      value
      & opt (some (pos_int "histogram bin count")) None
      & info [ "hist" ] ~docv:"BINS"
          ~doc:
            "Also print a max-load histogram with $(docv) bins over [0, 2*delta]. Samples \
             beyond the range are reported as outliers rather than clamped into the edge \
             bins.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the distributed system and report outcome statistics.")
    (obs_term
       Term.(
         const run $ n_arg $ delta_arg $ rule_arg $ player_params_arg $ samples_arg $ seed_arg $ jobs_arg
         $ hist_arg))

(* ------------------------- banded ------------------------- *)

(* --params t1,t2,q, or none to optimize; a malformed band is a usage
   error. *)
let banded_rule_arg =
  let check = function
    | [] -> Ok None
    | [ t1; t2; q ] -> (
      let r = { Banded.t1; t2; q } in
      match Banded.validate r with
      | () -> Ok (Some r)
      | exception Invalid_argument msg -> Error (`Msg msg))
    | l ->
      Error
        (`Msg
           (Printf.sprintf "banded expects --params t1,t2,q (got %d values), or none to optimize"
              (List.length l)))
  in
  Term.(term_result ~usage:true (const check $ params_arg))

let banded_cmd =
  let run n delta rule samples seed jobs () =
    let delta_r = resolve_delta n delta in
    let delta = Rat.to_float delta_r in
    let rule, p =
      match rule with
      | Some r -> (r, Banded.winning_probability ~n ~delta r)
      | None ->
        Printf.printf "optimizing the banded family (exact evaluator, multistart)...\n";
        Banded.optimum ~n ~delta ()
    in
    Printf.printf "instance: n = %d, delta = %s\n" n (Rat.to_string delta_r);
    Printf.printf "banded rule: bin 0 w.p. 1 below %.6f, w.p. %.6f up to %.6f, 0 above\n"
      rule.Banded.t1 rule.Banded.q rule.Banded.t2;
    Printf.printf "exact winning probability: %.10f\n" p;
    Printf.printf "  (coin: %.10f, best single threshold: %.10f)\n"
      (Oblivious.winning_probability_uniform ~n ~delta)
      (snd (Threshold.optimum_sym ~n ~delta ()));
    let rng = Rng.create ~seed in
    let inst = Model.instance ~n ~delta in
    let est = Mc_eval.winning_probability ~domains:jobs ~rng ~samples inst (Banded.to_rule rule) in
    Printf.printf "Monte-Carlo (%d plays): %s\n" samples (Format.asprintf "%a" Mc.pp_estimate est)
  in
  Cmd.v
    (Cmd.info "banded"
       ~doc:
         "Evaluate or optimize banded randomized rules (the family behind experiment X3), \
          with the exact mixture-of-uniforms evaluator.")
    (obs_term
       Term.(const run $ n_arg $ delta_arg $ banded_rule_arg $ samples_arg $ seed_arg $ jobs_arg))

(* ------------------------- chaos ------------------------- *)

let chaos_cmd =
  let run n delta rule params samples seed jobs crash crash_mode noise jitter sweep points csv
      () =
    let delta_r = resolve_delta n delta in
    let deltaf = Rat.to_float delta_r in
    let protocol =
      match (rule, params) with
      | `Threshold, [] ->
        (* default to the paper's optimal common threshold for the instance *)
        let res = Symbolic.optimal_sym_threshold ~n ~delta:delta_r () in
        Dist_protocol.common_threshold ~n (Rat.to_float res.Piecewise.argmax)
      | `Oblivious, [] -> Dist_protocol.fair_coin ~n
      | `Threshold, _ -> Dist_protocol.single_threshold (expand_params n params)
      | `Oblivious, _ -> Dist_protocol.oblivious (expand_params n params)
    in
    let rates =
      match (sweep, crash) with
      | Some l, _ -> l
      | None, Some r -> [ r ]
      | None, None -> [ 0.; 0.05; 0.1; 0.25; 0.5 ]
    in
    let model_of rate = Fault_model.make ~crash:rate ~crash_mode ~noise ~jitter () in
    (* budget the exact fold: ~1e8 branch visits across the grid (the fold
       costs up to 4^n per cell), clamped to the clean engine's 64-point
       default *)
    let grid_points =
      match points with
      | Some p -> p
      | None ->
        let budget = 1e8 /. (4. ** float_of_int n) in
        int_of_float (Float.min 64. (Float.max 4. (budget ** (1. /. float_of_int n))))
    in
    let pattern = Comm_pattern.none ~n in
    let rng = Rng.create ~seed in
    let report =
      Degradation.sweep ~grid_points ~domains:jobs ~rng ~samples ~rates ~model_of
        ~delta:deltaf pattern protocol
    in
    Printf.printf "instance: n = %d, delta = %s\n" n (Rat.to_string delta_r);
    Printf.printf "protocol: %s over %s\n" report.Degradation.protocol_name
      report.Degradation.pattern;
    Printf.printf "fault model (crash rate swept): %s\n"
      (Fault_model.to_string (model_of (List.fold_left Float.max 0. rates)));
    Printf.printf "samples per point: %d, seed %d, grid points %d\n" samples seed grid_points;
    let blo, bhi = report.Degradation.baseline_mc.Mc.ci95 in
    Printf.printf "fault-free baseline: exact (grid) = %.6f, MC = %.6f in [%.6f,%.6f], agrees: %b\n"
      report.Degradation.baseline_exact report.Degradation.baseline_mc.Mc.mean blo bhi
      report.Degradation.baseline_agrees;
    Printf.printf "degradation sweep over crash rate:\n";
    print_string
      (if csv then Degradation.to_csv report else Degradation.to_table report);
    if List.length report.Degradation.points > 1 then
      Printf.printf "degradation monotone (within MC noise): %b\n"
        (Degradation.monotone_nonincreasing report)
  in
  let crash_arg =
    Arg.(
      value
      & opt (some (rate_conv "crash rate")) None
      & info [ "crash" ] ~docv:"R"
          ~doc:
            "Single crash rate to test (overridden by $(b,--sweep); default: sweep 0, 0.05, \
             0.1, 0.25, 0.5).")
  in
  let crash_mode_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("drop", Fault_model.Drop); ("bin0", Fault_model.Default_bin 0);
               ("bin1", Fault_model.Default_bin 1) ])
          (Fault_model.Default_bin 0)
      & info [ "crash-mode" ] ~docv:"MODE"
          ~doc:
            "What a crashed player's input does: $(b,bin0)/$(b,bin1) (default bin0: the input \
             lands on a stuck default route, degrading the balance) or $(b,drop) (the load \
             vanishes entirely - which actually helps feasibility).")
  in
  let rate_arg names doc =
    Arg.(value & opt (rate_conv (List.hd names ^ " rate")) 0. & info names ~docv:"R" ~doc)
  in
  let noise_arg = rate_arg [ "noise" ] "View-perturbation amplitude (held fixed across the sweep)." in
  let jitter_arg = rate_arg [ "jitter" ] "Relative bin-capacity jitter amplitude (held fixed)." in
  let sweep_arg =
    Arg.(
      value
      & opt (some (list (rate_conv "sweep rate"))) None
      & info [ "sweep" ] ~docv:"R1,R2,..." ~doc:"Crash rates to sweep.")
  in
  let points_arg =
    Arg.(
      value
      & opt (some (pos_int "grid points")) None
      & info [ "points" ] ~docv:"P"
          ~doc:"Grid points per dimension for the exact baseline/fold (default: auto by n).")
  in
  let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Print the sweep as CSV.") in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fault-injection analysis: sweep a crash rate (plus optional view noise and capacity \
          jitter) and report the win-probability degradation of the paper's optimal algorithms \
          on the no-communication pattern against their fault-free baselines.")
    (obs_term
       Term.(
         const run $ n_arg $ delta_arg $ rule_arg $ player_params_arg $ samples_arg $ seed_arg $ jobs_arg
         $ crash_arg $ crash_mode_arg $ noise_arg $ jitter_arg $ sweep_arg $ points_arg $ csv_arg))

(* ------------------------- tradeoff ------------------------- *)

let tradeoff_cmd =
  let run max_n () =
    Printf.printf "%-4s %-8s %-14s %-14s %-12s %s\n" "n" "delta" "P_oblivious" "P_threshold"
      "beta*" "winner";
    for n = 2 to max_n do
      let delta = Rat.of_ints n 3 in
      let obl = Oblivious.Q.winning_probability_uniform ~n ~delta in
      let res = Symbolic.optimal_sym_threshold ~n ~delta () in
      Printf.printf "%-4d %-8s %-14.8f %-14.8f %-12.8f %s\n" n (Rat.to_string delta)
        (Rat.to_float obl)
        (Rat.to_float res.Piecewise.value)
        (Rat.to_float res.Piecewise.argmax)
        (if Rat.compare res.Piecewise.value obl > 0 then "threshold" else "oblivious")
    done
  in
  let max_n_arg =
    Arg.(
      value & opt (pos_int "system size") 8 & info [ "max-n" ] ~docv:"N" ~doc:"Largest system size.")
  in
  Cmd.v
    (Cmd.info "tradeoff" ~doc:"Oblivious vs single-threshold optimum across system sizes.")
    (obs_term Term.(const run $ max_n_arg))

(* ------------------------- obs ------------------------- *)

let obs_serve_cmd =
  let run port ledger duration =
    Metrics.set_enabled true;
    Trace.set_enabled true;
    match Httpd.start ?ledger_file:ledger ~port () with
    | Error msg ->
      Printf.eprintf "ddm obs serve: cannot listen on 127.0.0.1:%d: %s\n%!" port msg;
      exit 2
    | Ok server ->
      Snapring.start ();
      let wait_for_stop = stop_on_signal () in
      Printf.printf "obs: serving http://127.0.0.1:%d (/healthz /metrics /runs /snapshot)%s\n%!"
        (Httpd.port server)
        (match duration with
        | Some d -> Printf.sprintf ", stopping after %gs" d
        | None -> "; Ctrl-C to stop");
      if Logx.would_log Logx.Info then
        Logx.info "obs.serve" [ ("port", Logx.Int (Httpd.port server)) ];
      wait_for_stop ~duration;
      Snapring.stop ();
      Httpd.stop server;
      Printf.printf "obs: stopped\n%!"
  in
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:"TCP port to bind on 127.0.0.1; 0 (the default) picks an ephemeral port.")
  in
  let serve_ledger_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE" ~doc:"JSONL run ledger backing the /runs endpoint.")
  in
  let duration_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"SECS"
          ~doc:"Stop after $(docv) seconds (default: run until SIGINT/SIGTERM).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the observability HTTP endpoint standalone (own process, no computation): \
          /healthz, /metrics, /runs, /snapshot on 127.0.0.1.")
    Term.(const run $ port_arg $ serve_ledger_arg $ duration_arg)

let obs_cmd =
  Cmd.group
    (Cmd.info "obs"
       ~doc:
         "Live observability plane. Every subcommand also takes --obs-listen PORT to serve \
          these endpoints during a run; $(b,ddm obs serve) runs them standalone.")
    [ obs_serve_cmd ]

(* ------------------------- serve ------------------------- *)

let serve_cmd =
  let run port workers solver_jobs queue_depth budget_ms lru_cap cache_dir ledger duration
      slow_ms trace_out log_level log_json chaos_slow chaos_slow_s chaos_panic chaos_diskfail
      chaos_seed =
    Metrics.set_enabled true;
    Trace.set_enabled true;
    set_logging log_level log_json;
    let chaos =
      if chaos_slow > 0. || chaos_panic > 0. || chaos_diskfail > 0. then
        Some
          {
            Serve.slow_rate = chaos_slow;
            slow_s = chaos_slow_s;
            panic_rate = chaos_panic;
            diskfail_rate = chaos_diskfail;
            seed = chaos_seed;
          }
      else None
    in
    let cfg =
      {
        Serve.default_config with
        Serve.port;
        workers;
        solver_domains = solver_jobs;
        queue_depth;
        default_budget_ms = budget_ms;
        lru_cap;
        cache_dir;
        ledger_file = ledger;
        slow_request_s = float_of_int slow_ms /. 1000.;
        chaos;
      }
    in
    match Serve.start cfg with
    | exception Sys_error msg ->
      Printf.eprintf "ddm serve: cannot open cache storage: %s\n%!" msg;
      exit 2
    | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "ddm serve: cannot open cache storage: %s: %s %s\n%!" (Unix.error_message e)
        fn arg;
      exit 2
    | Error msg ->
      Printf.eprintf "ddm serve: cannot listen on 127.0.0.1:%d: %s\n%!" port msg;
      exit 2
    | Ok t ->
      Snapring.start ();
      let wait_for_stop = stop_on_signal () in
      Printf.printf
        "serve: listening http://127.0.0.1:%d (POST /eval, GET /stats, GET /cache/stats + obs \
         routes), %d workers x %d solver domain(s), queue %d%s%s\n\
         %!"
        (Serve.port t) workers solver_jobs queue_depth
        (match cache_dir with Some d -> Printf.sprintf ", cache %s" d | None -> ", memory-only")
        (match duration with
        | Some d -> Printf.sprintf ", stopping after %gs" d
        | None -> "; SIGTERM to drain");
      wait_for_stop ~duration;
      (* graceful drain: stop accepting, finish accepted work, fail the
         rest explicitly, then exit 0 *)
      Serve.stop t;
      Snapring.stop ();
      (match trace_out with
      | None -> ()
      | Some file ->
        (* request + solve spans from every domain, with the snapshot
           ring as counter/histogram tracks, in one Perfetto-loadable
           document *)
        (try
           Chrome_trace.write ~file ~counters:(Snapring.samples ()) (Trace.spans ());
           Printf.printf "serve: trace written to %s\n%!" file
         with Sys_error msg -> Printf.eprintf "ddm serve: cannot write trace: %s\n%!" msg));
      Printf.printf "serve: drained and stopped\n%!"
  in
  let port_arg =
    Arg.(
      value & opt int 0
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:"TCP port to bind on 127.0.0.1; 0 (the default) picks an ephemeral port.")
  in
  let workers_arg =
    Arg.(
      value
      & opt (pos_int "worker count") Serve.default_config.Serve.workers
      & info [ "workers" ] ~docv:"N" ~doc:"Solver worker domains (one request each).")
  in
  let solver_jobs_arg =
    Arg.(
      value
      & opt (pos_int "solver worker count") Serve.default_config.Serve.solver_domains
      & info [ "j"; "solver-jobs" ] ~docv:"J"
          ~doc:
            "Domains $(i,per solve): each worker fans its lease-sharded solve (grid sweeps, \
             the threshold 2^n fold, the mc kernel) over $(docv) domains, so total solve \
             concurrency is up to --workers * $(docv). Answers are bit-identical for every \
             $(docv), so the cache is unaffected. Default 1 (leases run on the worker).")
  in
  let queue_arg =
    Arg.(
      value
      & opt (pos_int "queue depth") Serve.default_config.Serve.queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Bounded work-queue watermark; requests beyond it are shed with 429.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (pos_int "budget") Serve.default_config.Serve.default_budget_ms
      & info [ "budget-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline (requests may override with \"budget_ms\").")
  in
  let lru_arg =
    Arg.(
      value
      & opt (pos_int "LRU capacity") Serve.default_config.Serve.lru_cap
      & info [ "lru-cap" ] ~docv:"N" ~doc:"In-memory answer-cache capacity.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persistent answer-cache directory (crash-safe writes; corrupt entries are \
             quarantined at startup). Default: in-memory only.")
  in
  let serve_ledger_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:"JSONL run ledger: one entry per solved request (size-rotated), served at /runs.")
  in
  let duration_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"SECS"
          ~doc:"Drain and stop after $(docv) seconds (default: run until SIGINT/SIGTERM).")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (pos_int "slow threshold") 1000
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Requests slower than $(docv) emit a structured serve.slow_request log record \
             with the per-phase breakdown (queue wait, solve).")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "On shutdown, write a Chrome trace-event JSON file (open in Perfetto): one \
             serve.request.<outcome> span per request lined up with the worker solve spans, \
             plus counter and histogram count/sum tracks from the snapshot ring.")
  in
  let rate name doc =
    Arg.(value & opt float 0. & info [ name ] ~docv:"RATE" ~doc)
  in
  let chaos_slow_arg = rate "chaos-slow" "Chaos: fraction of jobs stalled before solving." in
  let chaos_slow_s_arg =
    Arg.(
      value & opt float 0.2
      & info [ "chaos-slow-s" ] ~docv:"SECS" ~doc:"Chaos: length of an injected stall.")
  in
  let chaos_panic_arg = rate "chaos-panic" "Chaos: fraction of jobs whose worker dies mid-job." in
  let chaos_diskfail_arg =
    rate "chaos-diskfail" "Chaos: fraction of cache writes that tear and fail."
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "chaos-seed" ] ~docv:"SEED" ~doc:"Chaos PRNG seed (runs replay exactly).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Crash-safe, deadline-aware evaluation service: POST /eval answers winning-probability \
          queries through a two-tier persistent answer cache, a bounded load-shedding work \
          queue, and a supervised solver-worker pool; SIGTERM drains gracefully.")
    Term.(
      const run $ port_arg $ workers_arg $ solver_jobs_arg $ queue_arg $ budget_arg $ lru_arg
      $ cache_dir_arg $ serve_ledger_arg $ duration_arg $ slow_ms_arg $ trace_out_arg $ log_arg
      $ log_json_arg $ chaos_slow_arg $ chaos_slow_s_arg $ chaos_panic_arg $ chaos_diskfail_arg
      $ chaos_seed_arg)

let () =
  let info =
    Cmd.info "ddm" ~version:"1.0.0"
      ~doc:
        "Optimal distributed decision-making with no communication \
         (Georgiades-Mavronicolas-Spirakis, FCT 1999)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            oblivious_cmd; threshold_cmd; certify_cmd; curve_cmd; eval_cmd; banded_cmd;
            simulate_cmd; chaos_cmd; tradeoff_cmd; obs_cmd; serve_cmd;
          ]))
