type estimate = { mean : float; stderr : float; ci95 : float * float; samples : int }

let samples_total =
  Metrics.counter ~help:"Monte-Carlo plays drawn across all runs" "ddm_mc_samples_total"

let wins_total =
  Metrics.counter ~help:"Monte-Carlo plays on which the probed event occurred" "ddm_mc_wins_total"

let plays_per_sec =
  Metrics.gauge ~help:"Throughput of the most recent Monte-Carlo run" "ddm_mc_plays_per_sec"

let run_seconds =
  Metrics.histogram ~help:"Wall-clock duration of Monte-Carlo runs"
    ~buckets:[| 0.001; 0.01; 0.1; 1.; 10. |]
    "ddm_mc_run_seconds"

let finish_run ~t0 ~samples ~hits =
  let dt = Trace.now_mono_s () -. t0 in
  Metrics.add samples_total samples;
  Metrics.add wins_total hits;
  Metrics.observe run_seconds dt;
  if dt > 0. then Metrics.set plays_per_sec (float_of_int samples /. dt)

let pp_estimate fmt e =
  let lo, hi = e.ci95 in
  Format.fprintf fmt "%.6f ± %.6f [%.6f, %.6f] (n=%d)" e.mean e.stderr lo hi e.samples

(* Every estimate is lease-sharded: the sample budget is split over
   Par_fold.leases Rng.split streams (Par_fold.sample), so an estimate
   depends on (seed, samples) but never on [domains], which defaults to 1.
   Counters are merged on join and the throughput gauge is written once
   here, on the calling domain, so nothing races.

   The closure sampler: each lease folds [step] over its share of draws
   from its own stream, and the lease accumulators merge in lease order. *)
let fold_draws ~domains ~rng ~samples ~init ~step ~merge =
  Par_fold.sample ~span:"mc.par.lease" ~domains ~rng ~samples (fun rng share ->
      let acc = ref init in
      for _ = 1 to share do
        acc := step !acc rng
      done;
      !acc)
  |> Array.fold_left merge init

(* [?kernel] swaps the sampling loop for the batch kernel; this is the one
   place an estimate is built from either sampler.  [f] is kept in the
   signature as the scalar reference but is never called.  The kernel runs
   inside the same span and feeds the same finish_run counters, so
   throughput read from the span profile and ddm_mc_samples_total covers
   both. *)
let probability ?(domains = 1) ?kernel ~rng ~samples f =
  if samples <= 0 then invalid_arg "Mc.probability: samples";
  Trace.with_span "mc.probability" @@ fun () ->
  let t0 = if !Metrics.on then Trace.now_mono_s () else 0. in
  let hits =
    match kernel with
    | Some k -> (Mc_kernel.run ~domains ~rng ~samples k).Mc_kernel.wins
    | None ->
      fold_draws ~domains ~rng ~samples ~init:0 ~merge:( + ) ~step:(fun k rng ->
          if f rng then k + 1 else k)
  in
  if !Metrics.on then finish_run ~t0 ~samples ~hits;
  let n = float_of_int samples in
  let p = float_of_int hits /. n in
  let stderr = sqrt (p *. (1. -. p) /. n) in
  let ci95 = Stats.wilson_interval ~successes:hits ~trials:samples () in
  { mean = p; stderr; ci95; samples }

let expectation ?(domains = 1) ~rng ~samples f =
  if samples <= 0 then invalid_arg "Mc.expectation: samples";
  Trace.with_span "mc.expectation" @@ fun () ->
  let t0 = if !Metrics.on then Trace.now_mono_s () else 0. in
  let acc =
    fold_draws ~domains ~rng ~samples ~init:Stats.empty ~merge:Stats.merge
      ~step:(fun acc rng -> Stats.add acc (f rng))
  in
  if !Metrics.on then finish_run ~t0 ~samples ~hits:0;
  let mean = Stats.mean acc in
  let stderr = Stats.stderr_of_mean acc in
  { mean; stderr; ci95 = (mean -. (1.96 *. stderr), mean +. (1.96 *. stderr)); samples }

let agrees e v =
  let lo, hi = e.ci95 in
  (* Widen by one extra stderr so a 1-in-20 flake does not fail the suite. *)
  let pad = Float.max e.stderr 1e-12 in
  v >= lo -. pad && v <= hi +. pad
