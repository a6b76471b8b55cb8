let fevals =
  Metrics.counter ~help:"Objective-function evaluations across all optimizers"
    "ddm_opt_fevals_total"

let nm_iterations =
  Metrics.counter ~help:"Nelder-Mead simplex iterations" "ddm_opt_nm_iterations_total"

let golden_iterations =
  Metrics.counter ~help:"Golden-section search iterations" "ddm_opt_golden_iterations_total"

let ca_sweeps =
  Metrics.counter ~help:"Coordinate-ascent sweeps over the full coordinate set"
    "ddm_opt_ca_sweeps_total"

let grid_max ~f ~lo ~hi ~points =
  if points < 2 then invalid_arg "Opt.grid_max: points";
  Metrics.add fevals points;
  let best_x = ref lo and best_v = ref (f lo) in
  for i = 1 to points - 1 do
    let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int (points - 1)) in
    let v = f x in
    if v > !best_v then begin
      best_x := x;
      best_v := v
    end
  done;
  (!best_x, !best_v)

let inv_phi = (sqrt 5. -. 1.) /. 2.

let golden_section ~f ~lo ~hi () =
  let tol = 1e-12 and max_iter = 200 in
  let a = ref lo and b = ref hi in
  let c = ref (!b -. (inv_phi *. (!b -. !a))) in
  let d = ref (!a +. (inv_phi *. (!b -. !a))) in
  let fc = ref (f !c) and fd = ref (f !d) in
  let iter = ref 0 in
  while !b -. !a > tol && !iter < max_iter do
    if !fc > !fd then begin
      b := !d;
      d := !c;
      fd := !fc;
      c := !b -. (inv_phi *. (!b -. !a));
      fc := f !c
    end
    else begin
      a := !c;
      c := !d;
      fc := !fd;
      d := !a +. (inv_phi *. (!b -. !a));
      fd := f !d
    end;
    incr iter
  done;
  Metrics.add golden_iterations !iter;
  (* two probes up front, one per iteration, one final midpoint *)
  Metrics.add fevals (!iter + 3);
  let x = (!a +. !b) /. 2. in
  (x, f x)

let grid_then_golden ~f ~lo ~hi ?(points = 101) () =
  let best_x, _ = grid_max ~f ~lo ~hi ~points in
  let step = (hi -. lo) /. float_of_int (points - 1) in
  let blo = Float.max lo (best_x -. step) and bhi = Float.min hi (best_x +. step) in
  golden_section ~f ~lo:blo ~hi:bhi ()

let nelder_mead ~f ~x0 ?(scale = 0.1) ?(tol = 1e-10) ?(max_iter = 5000) () =
  let n = Array.length x0 in
  if n = 0 then invalid_arg "Opt.nelder_mead: empty start";
  (* Maximize f by minimizing -f. *)
  let g x =
    Metrics.incr fevals;
    -.f x
  in
  let simplex =
    Array.init (n + 1) (fun i ->
      let p = Array.copy x0 in
      if i > 0 then p.(i - 1) <- p.(i - 1) +. scale;
      p)
  in
  let values = Array.map g simplex in
  let order () =
    let idx = Array.init (n + 1) Fun.id in
    Array.sort (fun i j -> compare values.(i) values.(j)) idx;
    idx
  in
  let centroid excl =
    let c = Array.make n 0. in
    Array.iteri
      (fun i p -> if i <> excl then Array.iteri (fun j v -> c.(j) <- c.(j) +. v) p)
      simplex;
    Array.map (fun v -> v /. float_of_int n) c
  in
  let combine a alpha b beta = Array.init n (fun j -> (alpha *. a.(j)) +. (beta *. b.(j))) in
  let iter = ref 0 in
  let spread () =
    let idx = order () in
    values.(idx.(n)) -. values.(idx.(0))
  in
  while !iter < max_iter && spread () > tol do
    let idx = order () in
    let best = idx.(0) and worst = idx.(n) and second_worst = idx.(n - 1) in
    let c = centroid worst in
    let reflected = combine c 2. simplex.(worst) (-1.) in
    let fr = g reflected in
    if fr < values.(best) then begin
      (* try expansion *)
      let expanded = combine c 3. simplex.(worst) (-2.) in
      let fe = g expanded in
      if fe < fr then begin
        simplex.(worst) <- expanded;
        values.(worst) <- fe
      end
      else begin
        simplex.(worst) <- reflected;
        values.(worst) <- fr
      end
    end
    else if fr < values.(second_worst) then begin
      simplex.(worst) <- reflected;
      values.(worst) <- fr
    end
    else begin
      let contracted = combine c 0.5 simplex.(worst) 0.5 in
      let fc = g contracted in
      if fc < values.(worst) then begin
        simplex.(worst) <- contracted;
        values.(worst) <- fc
      end
      else begin
        (* shrink toward best *)
        for i = 0 to n do
          if i <> best then begin
            simplex.(i) <- combine simplex.(best) 0.5 simplex.(i) 0.5;
            values.(i) <- g simplex.(i)
          end
        done
      end
    end;
    incr iter
  done;
  Metrics.add nm_iterations !iter;
  let idx = order () in
  (Array.copy simplex.(idx.(0)), -.values.(idx.(0)))

let coordinate_ascent ~f ~x0 ~bounds () =
  let sweeps = 50 and tol = 1e-11 in
  let n = Array.length x0 in
  if Array.length bounds <> n then invalid_arg "Opt.coordinate_ascent: bounds mismatch";
  let x = Array.copy x0 in
  let value = ref (f x) in
  let improved = ref true in
  let sweep = ref 0 in
  while !improved && !sweep < sweeps do
    improved := false;
    for i = 0 to n - 1 do
      let lo, hi = bounds.(i) in
      let f1 v =
        let saved = x.(i) in
        x.(i) <- v;
        let r = f x in
        x.(i) <- saved;
        r
      in
      let xi, vi = grid_then_golden ~f:f1 ~lo ~hi ~points:65 () in
      if vi > !value +. tol then begin
        x.(i) <- xi;
        value := vi;
        improved := true
      end
    done;
    incr sweep
  done;
  Metrics.add ca_sweeps !sweep;
  (x, !value)
