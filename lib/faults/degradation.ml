(* Graceful-degradation analysis: sweep a fault rate and compare the
   faulty win probability against the fault-free baseline of the same
   protocol. The baseline is the deterministic grid integral, so the
   zero-rate sweep point doubles as an end-to-end check that a fault-model
   run reproduces the fault-free one (MC within its Wilson CI). *)

type point = {
  rate : float;
  faults : Fault_model.t;
  estimate : Mc.estimate;
  exact : float option;
}

type report = {
  protocol_name : string;
  pattern : string;
  delta : float;
  samples : int;
  grid_points : int;
  baseline_exact : float;
  baseline_mc : Mc.estimate;
  baseline_agrees : bool;
  points : point list;
}

let sweep ?(grid_points = 64) ?domains ?leases ~rng ~samples ~rates ~model_of ~delta pattern
    protocol =
  Trace.with_span "faults.degradation_sweep" @@ fun () ->
  (* [domains] (default 1) runs both halves of every point: the MC
     estimate on Par_fold's split-stream leases, the exact grid on its
     index-sharded leases — each bit-identical across worker counts. *)
  let baseline_exact =
    Engine.win_probability_grid ~points:grid_points ?domains ?leases ~delta pattern protocol
  in
  (* every sweep point owns a split-off stream: adding a rate or changing
     the sample count of one point never shifts another's randomness *)
  let baseline_mc =
    Engine.win_probability_mc ?domains ?leases ~rng:(Rng.split rng) ~samples
      ~faults:Fault_model.none ~delta pattern protocol
  in
  let points =
    List.map
      (fun rate ->
        let faults = model_of rate in
        Fault_model.validate faults;
        if Logx.would_log Logx.Info then
          Logx.info "faults.sweep_point"
            [ ("protocol", Logx.Str (Dist_protocol.name protocol)); ("rate", Logx.Float rate);
              ("samples", Logx.Int samples) ];
        let estimate =
          Engine.win_probability_mc ?domains ?leases ~rng:(Rng.split rng) ~samples ~faults ~delta
            pattern protocol
        in
        let exact =
          if Fault_model.crash_foldable faults then
            Some
              (Engine.win_probability_grid ~points:grid_points ?domains ?leases ~faults ~delta
                 pattern protocol)
          else None
        in
        { rate; faults; estimate; exact })
      rates
  in
  (* The grid baseline carries an O(1/points) midpoint-rule bias on the
     discontinuous win indicator; with many MC samples the Wilson CI gets
     tighter than that bias, so grant the discretization its own
     allowance rather than flag a spurious disagreement. *)
  let discretization = 0.5 /. float_of_int grid_points in
  {
    protocol_name = Dist_protocol.name protocol;
    pattern = Comm_pattern.to_string pattern;
    delta;
    samples;
    grid_points;
    baseline_exact;
    baseline_mc;
    baseline_agrees =
      Mc.agrees baseline_mc baseline_exact
      || Float.abs (baseline_mc.Mc.mean -. baseline_exact) <= discretization;
    points;
  }

(* Degradation should be monotone in the fault rate; MC points get slack
   for sampling noise (two standard errors of each neighbour), exact
   points only for float roundoff. *)
let monotone_nonincreasing ?(slack = 0.) report =
  let rec check = function
    | a :: (b :: _ as rest) ->
      let ok =
        match (a.exact, b.exact) with
        | Some ea, Some eb -> eb <= ea +. slack +. 1e-12
        | _ ->
          b.estimate.Mc.mean
          <= a.estimate.Mc.mean +. slack
             +. (2. *. (a.estimate.Mc.stderr +. b.estimate.Mc.stderr))
      in
      ok && check rest
    | _ -> true
  in
  check report.points

let drop_vs_baseline report p =
  (match p.exact with Some e -> e | None -> p.estimate.Mc.mean) -. report.baseline_exact

let to_table report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-8s %-12s %-19s %-12s %s\n" "rate" "P(win) MC" "95% CI" "exact" "vs baseline");
  List.iter
    (fun p ->
      let lo, hi = p.estimate.Mc.ci95 in
      Buffer.add_string buf
        (Printf.sprintf "%-8.3f %-12.6f [%.6f,%.6f] %-12s %+.6f\n" p.rate p.estimate.Mc.mean lo hi
           (match p.exact with Some e -> Printf.sprintf "%.6f" e | None -> "-")
           (drop_vs_baseline report p)))
    report.points;
  Buffer.contents buf

let to_csv report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "rate,mc_mean,ci_lo,ci_hi,exact,drop_vs_baseline\n";
  List.iter
    (fun p ->
      let lo, hi = p.estimate.Mc.ci95 in
      Buffer.add_string buf
        (Printf.sprintf "%.6f,%.8f,%.8f,%.8f,%s,%.8f\n" p.rate p.estimate.Mc.mean lo hi
           (match p.exact with Some e -> Printf.sprintf "%.8f" e | None -> "")
           (drop_vs_baseline report p)))
    report.points;
  Buffer.contents buf
