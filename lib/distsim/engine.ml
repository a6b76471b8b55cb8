type outcome = {
  inputs : float array;
  crashed : bool array;
  decisions : int array;
  load0 : float;
  load1 : float;
  delta_eff : float;
  win : bool;
  faults : int;
}

let plays = Metrics.counter ~help:"Distributed-system plays executed" "ddm_engine_plays_total"

let grid_cells =
  Metrics.counter ~help:"Grid cells evaluated by the deterministic integrator"
    "ddm_engine_grid_cells_total"

let branch_enums =
  Metrics.counter
    ~help:"Decision-vector branches (2^n per conditional evaluation) enumerated by the engine"
    "ddm_engine_branch_enumerations_total"

(* Fault injection (the [?faults] argument) reports under ddm_faults_*:
   plays run with a fault model, per-dimension events, the all-dimension
   total, degraded plays, and the crash sets the exact fold visits. *)
let fault_plays =
  Metrics.counter ~help:"Fault-injected distributed plays executed" "ddm_faults_plays_total"

let injected =
  Metrics.counter ~help:"Fault events injected (all dimensions)" "ddm_faults_injected_total"

let crashes = Metrics.counter ~help:"Player crashes injected" "ddm_faults_crashes_total"

let links_dropped =
  Metrics.counter ~help:"Revealed inputs lost to link faults" "ddm_faults_links_dropped_total"

let links_stale =
  Metrics.counter ~help:"Revealed inputs replaced by stale reads" "ddm_faults_links_stale_total"

let values_perturbed =
  Metrics.counter ~help:"View values perturbed by input noise" "ddm_faults_values_perturbed_total"

let jittered_plays =
  Metrics.counter ~help:"Plays judged against a jittered bin capacity"
    "ddm_faults_capacity_jitter_plays_total"

let degraded_plays =
  Metrics.counter ~help:"Plays in which at least one fault was injected"
    "ddm_faults_degraded_plays_total"

let fold_branches =
  Metrics.counter ~help:"Crash-subset branches enumerated by the exact fault fold"
    "ddm_faults_fold_branches_total"

let view pattern inputs i =
  let others =
    (* no closure for a player who sees no one, as on the paper's pattern *)
    match Comm_pattern.sees pattern i with
    | [] -> []
    | seen -> List.map (fun j -> (j, inputs.(j))) seen
  in
  { Dist_protocol.me = i; own = inputs.(i); others }

let views pattern inputs = Array.init (Comm_pattern.n pattern) (view pattern inputs)

(* A NaN here would otherwise poison every downstream aggregate (grid
   integrals average thousands of cells; one NaN cell wipes the sum), so a
   non-finite decide output is a protocol bug and raises. *)
let checked_decide ~where protocol v =
  let p = Dist_protocol.decide protocol v in
  if Float.is_finite p then p
  else
    invalid_arg
      (Printf.sprintf
         "Engine.%s: protocol %S returned a non-finite decide output (%h) for player %d"
         where (Dist_protocol.name protocol) p v.Dist_protocol.me)

let degrade_view rng (m : Fault_model.t) (v : Dist_protocol.view) =
  let count = ref 0 in
  let others =
    if m.link_loss > 0. then
      List.filter
        (fun _ ->
          if Rng.bernoulli rng m.link_loss then begin
            incr count;
            Metrics.incr links_dropped;
            false
          end
          else true)
        v.Dist_protocol.others
    else v.Dist_protocol.others
  in
  let others =
    if m.stale > 0. then
      List.map
        (fun (j, x) ->
          if Rng.bernoulli rng m.stale then begin
            incr count;
            Metrics.incr links_stale;
            (j, Rng.float01 rng)
          end
          else (j, x))
        others
    else others
  in
  let v =
    if m.noise > 0. then begin
      let perturb x =
        incr count;
        Metrics.incr values_perturbed;
        Float.min 1. (Float.max 0. (x +. Rng.uniform rng (-.m.noise) m.noise))
      in
      let own = perturb v.Dist_protocol.own in
      { v with Dist_protocol.own; others = List.map (fun (j, x) -> (j, perturb x)) others }
    end
    else { v with Dist_protocol.others = others }
  in
  (v, !count)

(* Every fault dimension draws only when its rate is nonzero, so a play
   under a zero-rate model consumes exactly the fault-free play's draws:
   the inputs, then each player's decision coin in player order.  Crash
   flags and the jittered capacity are drawn before anyone decides; then
   each player is played in one pass (view, decision, load), and a
   dropped player's input ([-1]) reaches neither bin. *)
let run_once ?faults rng ~delta pattern protocol =
  Metrics.incr plays;
  let n = Comm_pattern.n pattern in
  let inputs = Array.init n (fun _ -> Rng.float01 rng) in
  let faulty = Option.is_some faults in
  let m = Option.value faults ~default:Fault_model.none in
  let crash_on = m.crash > 0. and jitter_on = m.jitter > 0. in
  if faulty then Metrics.incr fault_plays;
  let crashed = if crash_on then Array.init n (fun _ -> Rng.bernoulli rng m.crash) else [||] in
  let delta_eff =
    if jitter_on then delta *. (1. +. Rng.uniform rng (-.m.jitter) m.jitter) else delta
  in
  let decisions = Array.make n 0 in
  let load0 = ref 0. and load1 = ref 0. and view_events = ref 0 in
  for i = 0 to n - 1 do
    let d =
      if crash_on && crashed.(i) then
        match m.crash_mode with Fault_model.Drop -> -1 | Fault_model.Default_bin b -> b
      else begin
        let v = view pattern inputs i in
        let v =
          if not faulty then v
          else begin
            let v, k = degrade_view rng m v in
            view_events := !view_events + k;
            v
          end
        in
        let p = checked_decide ~where:"run_once" protocol v in
        if p >= 1. then 0 else if p <= 0. then 1 else if Rng.bernoulli rng p then 0 else 1
      end
    in
    decisions.(i) <- d;
    if d = 0 then load0 := !load0 +. inputs.(i) else if d = 1 then load1 := !load1 +. inputs.(i)
  done;
  let n_crashed = Array.fold_left (fun k c -> if c then k + 1 else k) 0 crashed in
  let events = n_crashed + !view_events + if jitter_on then 1 else 0 in
  if events > 0 then begin
    Metrics.add crashes n_crashed;
    if jitter_on then Metrics.incr jittered_plays;
    Metrics.add injected events;
    Metrics.incr degraded_plays
  end;
  let load0 = !load0 and load1 = !load1 in
  let win = load0 <= delta_eff && load1 <= delta_eff in
  { inputs; crashed; decisions; load0; load1; delta_eff; win; faults = events }

(* A kernel run keeps the counters run_once keeps, once per lease.  Besides
   its plays, a lease tallies crashes and crashed plays from draws it
   already makes; on the no-communication pattern every other count
   follows.  Noise perturbs each surviving player's own value
   (degrade_view does, whatever the rule reads), jitter judges every
   play, and with either on every play carries a fault event. *)
let count_lease ~n faults (r : Mc_kernel.result) =
  Metrics.add plays r.samples;
  Option.iter
    (fun (m : Fault_model.t) ->
      Metrics.add fault_plays r.samples;
      let perturbed = if m.noise > 0. then (n * r.samples) - r.crashes else 0 in
      let jittered = if m.jitter > 0. then r.samples else 0 in
      Metrics.add crashes r.crashes;
      Metrics.add values_perturbed perturbed;
      Metrics.add jittered_plays jittered;
      Metrics.add injected (r.crashes + perturbed + jittered);
      Metrics.add degraded_plays
        (if m.noise > 0. || m.jitter > 0. then r.samples else r.crash_plays))
    faults

(* The kernel plays the paper's game: a local rule on the
   no-communication pattern.  There no player reveals an input, so link
   loss and stale reads have nothing to degrade; the kernel plays crash,
   noise and jitter from the same model. *)
let kernel_spec ?faults ~delta pattern protocol =
  match Dist_protocol.local_rule protocol with
  | Some rule when Comm_pattern.message_count pattern = 0 ->
    let n = Comm_pattern.n pattern in
    Some (Mc_kernel.make ?faults ~on_lease:(count_lease ~n faults) ~n ~delta rule)
  | _ -> None

let win_probability_mc ?domains ?faults ~rng ~samples ~delta pattern protocol =
  Option.iter Fault_model.validate faults;
  Trace.with_span "engine.mc" @@ fun () ->
  (* the sampler follows the question: the kernel for the paper's game,
     the closure for everything else *)
  let kernel = kernel_spec ?faults ~delta pattern protocol in
  Mc.probability ?domains ?kernel ~rng ~samples (fun rng ->
      (run_once ?faults rng ~delta pattern protocol).win)

(* ----------------------- exact conditional folds ----------------------- *)

(* The crash set a fault model folds over: [None] when no player can crash
   (no model, or crash rate 0), so the fold visits only the empty crash
   set — the plain decision-branch enumeration. *)
let crash_of ~where = function
  | None -> None
  | Some (m : Fault_model.t) ->
    Fault_model.validate m;
    if not (Fault_model.crash_foldable m) then
      invalid_arg
        (Printf.sprintf
           "Engine.%s: %s is not analytically foldable (only the crash dimension folds; estimate \
            the rest by Monte-Carlo)"
           where (Fault_model.to_string m));
    if m.crash > 0. then Some (m.crash, m.crash_mode) else None

(* clamp: custom rules may return values slightly outside [0,1] (but a
   non-finite value raises in checked_decide rather than slipping through
   the clamp as NaN) *)
let decide_probs pattern protocol inputs =
  Array.map
    (fun v ->
      Float.min 1. (Float.max 0. (checked_decide ~where:"win_probability_given" protocol v)))
    (views pattern inputs)

(* P(win | inputs) with no crashes: the 2^n decision branches, bin 1's
   load read as [total - load0]. *)
let clean_given ~delta probs inputs =
  let n = Array.length inputs in
  Metrics.add branch_enums (1 lsl n);
  let total = Array.fold_left ( +. ) 0. inputs in
  (* win <=> total - delta <= load0 <= delta *)
  let rec go i load0 weight =
    if weight = 0. then 0.
    else if i = n then if load0 <= delta && total -. load0 <= delta then weight else 0.
    else begin
      let p = probs.(i) in
      let w0 = if p > 0. then go (i + 1) (load0 +. inputs.(i)) (weight *. p) else 0. in
      let w1 = if p < 1. then go (i + 1) load0 (weight *. (1. -. p)) else 0. in
      w0 +. w1
    end
  in
  go 0 0. 1.

(* One crash set's term of P(win | inputs) = sum over crash sets S of
     c^|S| (1-c)^(n-|S|) * P(win | survivors decide, S's inputs rerouted)
   ([mask] bit i set <=> player i crashed; 0 for a zero-weight set).
   Crashed inputs leave the total, so both bin loads are tracked. *)
let crash_term ~delta ~crash:(c, mode) probs inputs mask =
  let n = Array.length inputs in
  let weight = ref 1. and base0 = ref 0. and base1 = ref 0. in
  let survivors = ref [] in
  for i = n - 1 downto 0 do
    if mask land (1 lsl i) <> 0 then begin
      weight := !weight *. c;
      match mode with
      | Fault_model.Drop -> ()
      | Fault_model.Default_bin 0 -> base0 := !base0 +. inputs.(i)
      | Fault_model.Default_bin _ -> base1 := !base1 +. inputs.(i)
    end
    else begin
      weight := !weight *. (1. -. c);
      survivors := i :: !survivors
    end
  done;
  if !weight > 0. then begin
    Metrics.incr fold_branches;
    let rec go players l0 l1 w =
      if w = 0. then 0.
      else
        match players with
        | [] -> if l0 <= delta && l1 <= delta then w else 0.
        | i :: rest ->
          let p = probs.(i) in
          let w0 = if p > 0. then go rest (l0 +. inputs.(i)) l1 (w *. p) else 0. in
          let w1 = if p < 1. then go rest l0 (l1 +. inputs.(i)) (w *. (1. -. p)) else 0. in
          w0 +. w1
    in
    go !survivors !base0 !base1 !weight
  end
  else 0.

let win_probability_given ?(domains = 1) ?faults ~delta pattern protocol inputs =
  let crash = crash_of ~where:"win_probability_given" faults in
  let probs = decide_probs pattern protocol inputs in
  match crash with
  | None -> clean_given ~delta probs inputs
  | Some crash ->
    (* crash sets sharded by index range; per-lease partial sums merge in
       lease order, so the fold is worker-count invariant *)
    Par_fold.sum ~span:"engine.fold.lease" ~domains ~items:(1 lsl Array.length inputs)
      (crash_term ~delta ~crash probs inputs)

exception Cancelled of { cells_done : int; cells_total : int }

(* The cooperative cancellation hook: consulted once per cell (the
   per-cell decision fold costs at least 2^n branch visits, so the extra
   closure call is noise).  Progress lives in a shared atomic that every
   lease bumps, so on the first [true] the raise carries the cells done
   across all leases, which a deadline-bounded caller (lib/serve) turns
   into a 504 with partial-progress metadata. *)
let cancel_check cancel done_cells total =
  match cancel with
  | None -> fun () -> ()
  | Some c ->
    fun () ->
      if c () then begin
        let cells_done = Atomic.get done_cells in
        if Logx.would_log Logx.Warn then
          Logx.warn "engine.grid.cancelled"
            [ ("cells_done", Logx.Int cells_done); ("cells_total", Logx.Int total) ];
        raise (Cancelled { cells_done; cells_total = total })
      end

let win_probability_grid ?(points = 64) ?cancel ?(domains = 1) ?faults ~delta pattern protocol =
  let crash = crash_of ~where:"win_probability_grid" faults in
  let n = Comm_pattern.n pattern in
  if points < 2 then
    invalid_arg (Printf.sprintf "Engine.win_probability_grid: points = %d (need >= 2)" points);
  let cells = Combinat.int_pow (float_of_int points) n in
  if cells > 1e8 then
    invalid_arg
      (Printf.sprintf
         "Engine.win_probability_grid: grid too large (points = %d, n = %d gives %.3g cells > 1e8)"
         points n cells);
  Trace.with_span "engine.grid" @@ fun () ->
  Metrics.add grid_cells (int_of_float cells);
  if Logx.would_log Logx.Info then
    Logx.info "engine.grid"
      [ ("protocol", Logx.Str (Dist_protocol.name protocol)); ("n", Logx.Int n);
        ("points", Logx.Int points); ("cells", Logx.Float cells);
        ("faults", Logx.Str (Option.fold ~none:"none" ~some:Fault_model.to_string faults)) ];
  let masks = 1 lsl n in
  let cell inputs =
    let probs = decide_probs pattern protocol inputs in
    match crash with
    | None -> clean_given ~delta probs inputs
    | Some crash ->
      (* a cell's crash sets fold right here: a lease pool per cell would
         cost more than the cell *)
      let acc = ref 0. in
      for mask = 0 to masks - 1 do
        acc := !acc +. crash_term ~delta ~crash probs inputs mask
      done;
      !acc
  in
  let cells_total = int_of_float cells in
  let points_f = float_of_int points in
  let coord k = (float_of_int k +. 0.5) /. points_f in
  let done_cells = Atomic.make 0 in
  let check = cancel_check cancel done_cells cells_total in
  let tracked = Option.is_some cancel in
  (* Cells are sharded by flat row-major index (dimension 0 outermost)
     into contiguous lease ranges, and per-lease partial sums merge in
     lease order, so the result depends on [points] only — never on the
     worker count.  A lease decodes its first cell once and then
     walks its range odometer-style, last dimension fastest, reusing one
     inputs array. *)
  let range acc ~lo ~hi =
    let digits = Array.make n 0 and inputs = Array.make n 0. in
    let rem = ref lo in
    for d = n - 1 downto 0 do
      digits.(d) <- !rem mod points;
      inputs.(d) <- coord digits.(d);
      rem := !rem / points
    done;
    let acc = ref acc in
    for _ = lo to hi - 1 do
      check ();
      acc := !acc +. cell inputs;
      if tracked then Atomic.incr done_cells;
      let d = ref (n - 1) in
      while !d >= 0 && digits.(!d) = points - 1 do
        digits.(!d) <- 0;
        inputs.(!d) <- coord 0;
        decr d
      done;
      if !d >= 0 then begin
        digits.(!d) <- digits.(!d) + 1;
        inputs.(!d) <- coord digits.(!d)
      end
    done;
    !acc
  in
  let total =
    Par_fold.fold_ranges ~span:"engine.grid.lease" ~domains ~items:cells_total
      ~init:(fun () -> 0.)
      ~range ~merge:( +. ) ()
  in
  total /. cells

let optimize_family ?points ?domains ~delta pattern ~family ~x0 ~bounds () =
  Trace.with_span "engine.optimize_family" @@ fun () ->
  let clamp x =
    Array.mapi
      (fun i v ->
        let lo, hi = bounds.(i) in
        Float.min hi (Float.max lo v))
      x
  in
  let f x = win_probability_grid ?points ?domains ~delta pattern (family (clamp x)) in
  let best_x, best_v = Opt.nelder_mead ~f ~x0 ~scale:0.15 ~tol:1e-10 () in
  (clamp best_x, best_v)
