(* Wire format and dispatch for `ddm serve` evaluation requests.  Parsing
   is total (Error strings, never exceptions); solving funnels every rule
   family through the same deadline contract: Engine.Cancelled carries
   how far the work got when the budget ran out. *)

type rule = Threshold | Oblivious | Opt
type mode = Exact | Grid of int | Mc of { samples : int; seed : int }

type req = {
  rule : rule;
  n : int;
  delta : Rat.t;
  params : float array;
  mode : mode;
  crash : float;
  budget_ms : int option;
}

let rule_to_string = function
  | Threshold -> "threshold"
  | Oblivious -> "oblivious"
  | Opt -> "opt"

(* Instance caps: large enough for every experiment in the repo, small
   enough that a single request cannot wedge a worker for hours.  The
   exact threshold evaluator is O(3^n) and the symbolic pipeline grows
   fast in n, hence their tighter caps. *)
let max_n = 64
let max_n_threshold_exact = 14
let max_n_opt = 8
let max_points = 512
let max_mc_samples = 2_000_000
let max_budget_ms = 600_000

let ( let* ) = Result.bind

let parse body =
  let* j =
    match Jsonx.parse body with Ok j -> Ok j | Error e -> Error ("request JSON: " ^ e)
  in
  let* rule =
    match Jsonx.string_member "rule" j with
    | Some "threshold" -> Ok Threshold
    | Some "oblivious" -> Ok Oblivious
    | Some "opt" -> Ok Opt
    | Some r -> Error (Printf.sprintf "unknown rule %S (threshold | oblivious | opt)" r)
    | None -> Error "missing \"rule\""
  in
  let* n =
    match Jsonx.int_member "n" j with
    | Some n when n >= 1 && n <= max_n -> Ok n
    | Some n -> Error (Printf.sprintf "n = %d out of range [1, %d]" n max_n)
    | None -> Error "missing \"n\""
  in
  let* delta =
    match Jsonx.member "delta" j with
    | None -> Ok (Rat.of_ints n 3)  (* the CLI's default capacity *)
    | Some (Jsonx.Str s) -> (
      match Rat.of_string s with
      | d when Rat.sign d > 0 -> Ok d
      | _ -> Error "delta must be positive"
      | exception _ -> Error (Printf.sprintf "unparsable delta %S" s))
    | Some (Jsonx.Num f) when Float.is_finite f && f > 0. -> Ok (Rat.of_float f)
    | Some _ -> Error "delta must be a positive number or rational string"
  in
  let* params =
    let expand v = Ok (Array.make n v) in
    let check_prob what v =
      if Float.is_finite v && v >= 0. && v <= 1. then Ok v
      else Error (Printf.sprintf "%s %g outside [0, 1]" what v)
    in
    match (rule, Jsonx.member "params" j) with
    | Opt, _ -> Ok [||]  (* the optimum has no free parameters *)
    | _, None -> expand 0.5
    | _, Some (Jsonx.Num v) ->
      let* v = check_prob "params" v in
      expand v
    | _, Some (Jsonx.Arr xs) -> (
      let* vs =
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            match Jsonx.to_float_opt x with
            | Some v ->
              let* v = check_prob "params" v in
              Ok (v :: acc)
            | None -> Error "params must be numbers")
          (Ok []) xs
      in
      match List.rev vs with
      | [ v ] -> expand v
      | vs when List.length vs = n -> Ok (Array.of_list vs)
      | vs -> Error (Printf.sprintf "params has length %d (want 1 or n = %d)" (List.length vs) n))
    | _, Some _ -> Error "params must be a number or array of numbers"
  in
  let* crash =
    match Jsonx.member "crash" j with
    | None -> Ok 0.
    | Some (Jsonx.Num c) when Float.is_finite c && c >= 0. && c < 1. -> Ok c
    | Some _ -> Error "crash must be a number in [0, 1)"
  in
  let* mode =
    let check_points p =
      if p >= 2 && p <= max_points then Ok p
      else Error (Printf.sprintf "points = %d out of range [2, %d]" p max_points)
    in
    let mc () =
      let* samples =
        match Jsonx.int_member "samples" j with
        | None -> Ok 100_000
        | Some s when s >= 1 && s <= max_mc_samples -> Ok s
        | Some s -> Error (Printf.sprintf "samples = %d out of range [1, %d]" s max_mc_samples)
      in
      Ok (Mc { samples; seed = Option.value (Jsonx.int_member "seed" j) ~default:42 })
    in
    match (Jsonx.string_member "mode" j, Jsonx.int_member "points" j) with
    | None, None | Some "exact", None -> Ok Exact
    | None, Some p ->
      (* "points" alone implies grid mode *)
      let* p = check_points p in
      Ok (Grid p)
    | Some ("exact" | "mc"), Some _ -> Error "points is only meaningful with mode \"grid\""
    | Some "grid", p ->
      let* p = check_points (Option.value p ~default:32) in
      Ok (Grid p)
    | Some "mc", None -> mc ()
    | Some m, _ -> Error (Printf.sprintf "unknown mode %S (exact | grid | mc)" m)
  in
  let* () =
    match (mode, Jsonx.int_member "samples" j, Jsonx.int_member "seed" j) with
    | Mc _, _, _ | _, None, None -> Ok ()
    | _ -> Error "samples/seed are only meaningful with mode \"mc\""
  in
  let* () =
    match (rule, mode, crash) with
    | Opt, (Grid _ | Mc _), _ -> Error "rule \"opt\" is exact-only (mode must be \"exact\")"
    | Opt, _, c when c > 0. -> Error "rule \"opt\" does not fold a crash rate"
    | (Threshold | Oblivious), Exact, c when c > 0. ->
      Error
        "crash > 0 requires mode \"grid\" (the exact crash fold) or \"mc\" (the batch sampling \
         kernel)"
    | Threshold, Exact, _ when n > max_n_threshold_exact ->
      Error
        (Printf.sprintf "threshold exact is O(3^n); n = %d exceeds %d (use mode \"grid\")" n
           max_n_threshold_exact)
    | Opt, _, _ when n > max_n_opt ->
      Error (Printf.sprintf "rule \"opt\" is capped at n = %d (symbolic pipeline)" max_n_opt)
    | _ -> Ok ()
  in
  let* budget_ms =
    match Jsonx.int_member "budget_ms" j with
    | None -> Ok None
    | Some b when b >= 1 && b <= max_budget_ms -> Ok (Some b)
    | Some b -> Error (Printf.sprintf "budget_ms = %d out of range [1, %d]" b max_budget_ms)
  in
  Ok { rule; n; delta; params; mode; crash; budget_ms }

let cache_key r =
  let params =
    String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.17g") r.params))
  in
  let mode =
    match r.mode with
    | Exact -> "exact"
    | Grid p -> Printf.sprintf "grid:%d" p
    | Mc { samples; seed } -> Printf.sprintf "mc:%d:%d" samples seed
  in
  (* The prefix versions the answers: bump it whenever an evaluator's
     answer for a key changes (v2: lease-sharded sums and MC streams; v3:
     crash answers name their crash model), so a durable store filled by
     an older build misses instead of serving stale values. *)
  Printf.sprintf "v3|rule=%s|n=%d|delta=%s|params=%s|mode=%s|crash=%.17g" (rule_to_string r.rule)
    r.n (Rat.to_string r.delta) params mode r.crash

type answer = { p : float; detail : (string * Jsonx.t) list }

let answer_to_json a = Jsonx.Obj (("p", Jsonx.Num a.p) :: a.detail)

let answer_of_json j =
  match (j, Jsonx.float_member "p" j) with
  | Jsonx.Obj fields, Some p ->
    Ok { p; detail = List.filter (fun (k, _) -> k <> "p") fields }
  | _ -> Error "answer payload missing \"p\""

(* Single-shot exact pipelines cannot be cancelled mid-flight (the serve
   watchdog covers a wedged one); at least refuse to start work whose
   budget is already spent. *)
let check_not_expired ~deadline_mono_s =
  if Trace.now_mono_s () >= deadline_mono_s then
    raise (Engine.Cancelled { cells_done = 0; cells_total = 1 })

let solve ?domains ~deadline_mono_s r =
  let cancel () = Trace.now_mono_s () >= deadline_mono_s in
  let delta_f = Rat.to_float r.delta in
  let faults = if r.crash > 0. then Some (Fault_model.crash_only r.crash) else None in
  (* grid and mc play the rule on the no-communication pattern *)
  let game () =
    let protocol =
      match r.rule with
      | Threshold -> Dist_protocol.single_threshold r.params
      | _ -> Dist_protocol.oblivious r.params
    in
    (Comm_pattern.none ~n:r.n, protocol)
  in
  (* a crash answer names the model it folded: [ddm chaos] defaults to
     another one, and the two answer one question differently *)
  let crash_model =
    match faults with
    | Some f ->
      [ ("crash_model", Jsonx.Str (Fault_model.crash_mode_to_string f.Fault_model.crash_mode)) ]
    | None -> []
  in
  match (r.rule, r.mode) with
  | Opt, _ ->
    check_not_expired ~deadline_mono_s;
    let res = Symbolic.optimal_sym_threshold ~n:r.n ~delta:r.delta () in
    {
      p = Rat.to_float res.Piecewise.value;
      detail =
        [ ("beta_star", Jsonx.Num (Rat.to_float res.Piecewise.argmax));
          ("beta_star_exact", Jsonx.Str (Rat.to_string res.Piecewise.argmax));
          ("p_exact", Jsonx.Str (Rat.to_string res.Piecewise.value)) ];
    }
  | Threshold, Exact ->
    check_not_expired ~deadline_mono_s;
    { p = Threshold.winning_probability ?domains ~delta:delta_f r.params; detail = [] }
  | Oblivious, Exact ->
    (* Theorem 4.1 collapses to n+1 terms — nothing to shard. *)
    check_not_expired ~deadline_mono_s;
    { p = Oblivious.winning_probability ~delta:delta_f r.params; detail = [] }
  | (Threshold | Oblivious), Grid points ->
    let pattern, protocol = game () in
    let p =
      Engine.win_probability_grid ~points ~cancel ?domains ?faults ~delta:delta_f pattern protocol
    in
    { p; detail = ("points", Jsonx.Num (float_of_int points)) :: crash_model }
  | (Threshold | Oblivious), Mc { samples; seed } ->
    (* Estimation at a client-pinned seed.  A local rule on the
       no-communication pattern is the batch kernel's game, so the engine
       plays it there.  The estimate is a function of (seed, samples)
       alone, so forwarding ?domains keeps the answer byte-stable
       across server -j settings.  The sample cap bounds the run well
       under a second, so like the exact pipelines it only checks the
       deadline up front. *)
    check_not_expired ~deadline_mono_s;
    let pattern, protocol = game () in
    let rng = Rng.create ~seed in
    let e =
      Engine.win_probability_mc ?domains ?faults ~rng ~samples ~delta:delta_f pattern protocol
    in
    let ci_lo, ci_hi = e.Mc.ci95 in
    {
      p = e.Mc.mean;
      detail =
        [ ("samples", Jsonx.Num (float_of_int samples));
          ("seed", Jsonx.Num (float_of_int seed)); ("stderr", Jsonx.Num e.Mc.stderr);
          ("ci_lo", Jsonx.Num ci_lo); ("ci_hi", Jsonx.Num ci_hi) ]
        @ crash_model;
    }
