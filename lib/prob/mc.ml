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

   [?kernel] swaps the closure sampler for the batch kernel; this is the
   one place an estimate is built from either sampler.  [f] is kept in the
   signature as the scalar reference but is never called then.  The
   closure sampler counts each lease's hits over its share of draws from
   its own stream and sums the leases in lease order.  The kernel runs
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
      Par_fold.sample ~span:"mc.par.lease" ~domains ~rng ~samples (fun rng share ->
          let hits = ref 0 in
          for _ = 1 to share do
            if f rng then incr hits
          done;
          !hits)
      |> Array.fold_left ( + ) 0
  in
  if !Metrics.on then finish_run ~t0 ~samples ~hits;
  let n = float_of_int samples in
  let p = float_of_int hits /. n in
  let stderr = sqrt (p *. (1. -. p) /. n) in
  let ci95 = Stats.wilson_interval ~successes:hits ~trials:samples () in
  { mean = p; stderr; ci95; samples }

let agrees e v =
  let lo, hi = e.ci95 in
  (* Widen by one extra stderr so a 1-in-20 flake does not fail the suite. *)
  let pad = Float.max e.stderr 1e-12 in
  v >= lo -. pad && v <= hi +. pad
