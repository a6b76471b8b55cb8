(* Bench-report baselines and regression detection.

   Reads ddm.bench.report/v1 (PR 1's bench --report output) and /v2 (adds
   per-experiment GC deltas, MC-span throughput, per-repeat run times, and
   top-level seed/git-rev provenance), merges repeated runs, and classifies
   per-experiment wall-time deltas against a noise model:

     - relative threshold: |new - old| / old must exceed [rel_tolerance]
     - absolute floor: |new - old| must exceed [min_delta_s] (tiny
       experiments jitter by whole percents without meaning anything)
     - Welch z-test at [z] when BOTH sides carry repeated runs, so a noisy
       delta on a wide distribution is not called a regression

   All three must agree before a delta counts as signal, in the spirit of
   distribution-aware change detection: the relative gate scales with the
   experiment, the floor kills microsecond noise, and the z-gate uses the
   spread when it is known. *)

let schema_v1 = "ddm.bench.report/v1"
let schema_v2 = "ddm.bench.report/v2"

type experiment = {
  id : string;
  wall_seconds : float;  (* mean over runs *)
  runs : float list;  (* individual wall times, length >= 1 *)
  mc_samples : int;
  mc_samples_per_sec : float;  (* whole-window throughput (v1 field) *)
  mc_span_seconds : float option;  (* v2: time inside MC sampling spans *)
  mc_samples_per_sec_mc : float option;  (* v2: throughput over the MC span *)
  gc : Ledger.gc_stats option;  (* v2 *)
  metrics : Jsonx.t option;
}

type report = {
  version : int;  (* 1 or 2 *)
  suite : string;
  created_s : float option;
  rev : string option;
  seed : int option;
  jobs : int option;  (* worker domains the MC workloads ran with *)
  total_wall_seconds : float;
  experiments : experiment list;
}

(* ------------------------------ reading ------------------------------ *)

let experiment_of_json json =
  match Jsonx.string_member "id" json with
  | None -> Error "experiment record missing \"id\""
  | Some id ->
    let wall = Option.value ~default:0. (Jsonx.float_member "wall_seconds" json) in
    let runs =
      match Jsonx.list_member "runs" json with
      | Some (_ :: _ as l) -> List.filter_map Jsonx.to_float_opt l
      | _ -> [ wall ]
    in
    Ok
      {
        id;
        wall_seconds = wall;
        runs;
        mc_samples = Option.value ~default:0 (Jsonx.int_member "mc_samples" json);
        mc_samples_per_sec = Option.value ~default:0. (Jsonx.float_member "mc_samples_per_sec" json);
        mc_span_seconds = Jsonx.float_member "mc_span_seconds" json;
        mc_samples_per_sec_mc = Jsonx.float_member "mc_samples_per_sec_mc" json;
        gc = Option.map Ledger.gc_of_json (Jsonx.member "gc" json);
        metrics = Jsonx.member "metrics" json;
      }

let of_json json =
  match Jsonx.string_member "schema" json with
  | Some s when s = schema_v1 || s = schema_v2 ->
    let version = if s = schema_v1 then 1 else 2 in
    let experiments =
      match Jsonx.list_member "experiments" json with
      | Some l -> List.filter_map (fun e -> Result.to_option (experiment_of_json e)) l
      | None -> []
    in
    Ok
      {
        version;
        suite = Option.value ~default:"ddm-bench" (Jsonx.string_member "suite" json);
        created_s = Jsonx.float_member "created_s" json;
        rev = Jsonx.string_member "git_rev" json;
        seed = Jsonx.int_member "seed" json;
        jobs = Jsonx.int_member "jobs" json;
        total_wall_seconds = Option.value ~default:0. (Jsonx.float_member "total_wall_seconds" json);
        experiments;
      }
  | Some other -> Error (Printf.sprintf "unsupported report schema %S" other)
  | None -> Error "missing \"schema\" field (not a ddm.bench.report file)"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load file =
  match read_file file with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match Jsonx.parse contents with
    | Error msg -> Error (Printf.sprintf "%s: %s" file msg)
    | Ok json -> Result.map_error (fun msg -> Printf.sprintf "%s: %s" file msg) (of_json json))

(* ------------------------------ merging ------------------------------ *)

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Pool same-id experiments across reports: run lists concatenate, wall
   time becomes the pooled mean, MC fields keep the first non-empty value
   (they are properties of the workload, not the timing). *)
let merge = function
  | [] -> invalid_arg "Baseline.merge: empty report list"
  | first :: _ as reports ->
    let order = ref [] in
    let pooled : (string, experiment) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun r ->
        List.iter
          (fun e ->
            match Hashtbl.find_opt pooled e.id with
            | None ->
              order := e.id :: !order;
              Hashtbl.replace pooled e.id e
            | Some prev ->
              let runs = prev.runs @ e.runs in
              Hashtbl.replace pooled e.id
                {
                  prev with
                  runs;
                  wall_seconds = mean runs;
                  mc_samples = (if prev.mc_samples > 0 then prev.mc_samples else e.mc_samples);
                  mc_span_seconds =
                    (match prev.mc_span_seconds with Some _ -> prev.mc_span_seconds | None -> e.mc_span_seconds);
                  mc_samples_per_sec_mc =
                    (match prev.mc_samples_per_sec_mc with
                    | Some _ -> prev.mc_samples_per_sec_mc
                    | None -> e.mc_samples_per_sec_mc);
                  gc = (match prev.gc with Some _ -> prev.gc | None -> e.gc);
                })
          r.experiments)
      reports;
    let experiments = List.rev_map (Hashtbl.find pooled) !order in
    {
      first with
      version = List.fold_left (fun acc r -> max acc r.version) 1 reports;
      experiments;
      total_wall_seconds = List.fold_left (fun acc e -> acc +. e.wall_seconds) 0. experiments;
    }

(* ------------------------------ writing ------------------------------ *)

let experiment_to_json e =
  let base =
    [
      ("id", Jsonx.Str e.id);
      ("wall_seconds", Jsonx.Num e.wall_seconds);
      ("runs", Jsonx.Arr (List.map (fun r -> Jsonx.Num r) e.runs));
      ("mc_samples", Jsonx.Num (float_of_int e.mc_samples));
      ("mc_samples_per_sec", Jsonx.Num e.mc_samples_per_sec);
    ]
  in
  let opt key f v = match v with None -> [] | Some v -> [ (key, f v) ] in
  Jsonx.Obj
    (base
    @ opt "mc_span_seconds" (fun v -> Jsonx.Num v) e.mc_span_seconds
    @ opt "mc_samples_per_sec_mc" (fun v -> Jsonx.Num v) e.mc_samples_per_sec_mc
    @ opt "gc" Ledger.gc_to_json e.gc
    @ opt "metrics" Fun.id e.metrics)

let to_json r =
  let opt key f v = match v with None -> [ (key, Jsonx.Null) ] | Some v -> [ (key, f v) ] in
  Jsonx.Obj
    ([ ("schema", Jsonx.Str (if r.version <= 1 then schema_v1 else schema_v2)); ("suite", Jsonx.Str r.suite) ]
    @ opt "created_s" (fun v -> Jsonx.Num v) r.created_s
    @ opt "git_rev" (fun v -> Jsonx.Str v) r.rev
    @ opt "seed" (fun v -> Jsonx.Num (float_of_int v)) r.seed
    @ opt "jobs" (fun v -> Jsonx.Num (float_of_int v)) r.jobs
    @ [
        ("total_wall_seconds", Jsonx.Num r.total_wall_seconds);
        ("experiments", Jsonx.Arr (List.map experiment_to_json r.experiments));
      ])

let write ~file r =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Jsonx.to_string (to_json r));
      output_char oc '\n')

(* ----------------------------- recording ----------------------------- *)

(* The span names under which Mc.probability / Mc.expectation record their
   sampling loops: every Monte-Carlo sample passes through exactly one of
   them, so their total is the time spent sampling. *)
let mc_span_names = [ "mc.probability"; "mc.expectation" ]

let measure ~repeat ~id f =
  if repeat < 1 then invalid_arg "Baseline.measure: repeat must be >= 1";
  let runs = ref [] and gc = ref None in
  for k = 0 to repeat - 1 do
    Metrics.reset ();
    Trace.clear ();
    let g0 = Ledger.gc_now () in
    let t0 = Trace.now_mono_s () in
    f k;
    runs := (Trace.now_mono_s () -. t0) :: !runs;
    gc := Some (Ledger.gc_delta ~before:g0 ~after:(Ledger.gc_now ()))
  done;
  (* the counters, spans and GC delta left standing are the final repeat's *)
  let last = List.hd !runs and runs = List.rev !runs in
  let mc_samples =
    match Metrics.find "ddm_mc_samples_total" with
    | Some { Metrics.value = Metrics.Counter_v v; _ } -> v
    | _ -> 0
  in
  let mc_span =
    List.fold_left (fun acc name -> acc +. Trace.total_seconds name) 0. mc_span_names
  in
  let per_s dt = if dt > 0. then Some (float_of_int mc_samples /. dt) else None in
  {
    id;
    wall_seconds = mean runs;
    runs;
    mc_samples;
    mc_samples_per_sec = Option.value ~default:0. (per_s last);
    mc_span_seconds = (if mc_span > 0. then Some mc_span else None);
    mc_samples_per_sec_mc = per_s mc_span;
    gc = !gc;
    metrics = Some (Export.moved_json (Metrics.snapshot ()));
  }

let report ~suite ?seed ?jobs experiments =
  {
    version = 2;
    suite;
    created_s = Some (Unix.gettimeofday ());
    rev = Ledger.git_rev ();
    seed;
    jobs;
    total_wall_seconds = List.fold_left (fun acc e -> acc +. e.wall_seconds) 0. experiments;
    experiments;
  }

(* --------------------------- classification --------------------------- *)

type noise = { rel_tolerance : float; min_delta_s : float; z : float }

let default_noise = { rel_tolerance = 0.25; min_delta_s = 0.002; z = 2.5 }

type verdict = Improvement | Regression | Noise | Added | Removed

let verdict_to_string = function
  | Improvement -> "improvement"
  | Regression -> "REGRESSION"
  | Noise -> "noise"
  | Added -> "added"
  | Removed -> "removed"

type comparison = {
  c_id : string;
  old_s : float;
  new_s : float;
  delta_s : float;
  ratio : float;  (* new/old; nan when old is 0 *)
  z_score : float option;  (* Welch z when both sides have >= 2 runs *)
  verdict : verdict;
}

let variance l =
  match l with
  | [] | [ _ ] -> 0.
  | l ->
    let m = mean l in
    List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. l /. float_of_int (List.length l - 1)

let welch_z old_runs new_runs =
  if List.length old_runs < 2 || List.length new_runs < 2 then None
  else
    let d = mean new_runs -. mean old_runs in
    let se =
      sqrt
        ((variance old_runs /. float_of_int (List.length old_runs))
        +. (variance new_runs /. float_of_int (List.length new_runs)))
    in
    if se > 0. then Some (d /. se)
    else Some (if d = 0. then 0. else if d > 0. then Float.infinity else Float.neg_infinity)

let classify ~noise ~old_runs ~new_runs =
  let old_s = mean old_runs and new_s = mean new_runs in
  let delta = new_s -. old_s in
  let rel = if old_s > 0. then delta /. old_s else if delta = 0. then 0. else Float.infinity in
  let z = welch_z old_runs new_runs in
  let beyond_z = match z with None -> true | Some z -> Float.abs z >= noise.z in
  let significant =
    Float.abs delta >= noise.min_delta_s && Float.abs rel >= noise.rel_tolerance && beyond_z
  in
  let verdict = if not significant then Noise else if delta > 0. then Regression else Improvement in
  {
    c_id = "";
    old_s;
    new_s;
    delta_s = delta;
    ratio = (if old_s > 0. then new_s /. old_s else Float.nan);
    z_score = z;
    verdict;
  }

let diff ?(noise = default_noise) ~old_report ~new_report () =
  let new_ids = List.map (fun e -> e.id) new_report.experiments in
  let removed =
    List.filter_map
      (fun e ->
        if List.mem e.id new_ids then None
        else
          Some
            {
              c_id = e.id;
              old_s = e.wall_seconds;
              new_s = 0.;
              delta_s = -.e.wall_seconds;
              ratio = Float.nan;
              z_score = None;
              verdict = Removed;
            })
      old_report.experiments
  in
  let compared =
    List.map
      (fun e ->
        match List.find_opt (fun o -> o.id = e.id) old_report.experiments with
        | None ->
          {
            c_id = e.id;
            old_s = 0.;
            new_s = e.wall_seconds;
            delta_s = e.wall_seconds;
            ratio = Float.nan;
            z_score = None;
            verdict = Added;
          }
        | Some o -> { (classify ~noise ~old_runs:o.runs ~new_runs:e.runs) with c_id = e.id })
      new_report.experiments
  in
  compared @ removed

let has_regression comparisons = List.exists (fun c -> c.verdict = Regression) comparisons

(* ------------------------------ rendering ------------------------------ *)

let pp_s v =
  if v >= 1. then Printf.sprintf "%.3f s" v
  else if v >= 1e-3 then Printf.sprintf "%.3f ms" (v *. 1e3)
  else Printf.sprintf "%.1f us" (v *. 1e6)

let to_table comparisons =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %12s %12s %12s %8s %8s %s\n" "experiment" "old" "new" "delta" "ratio"
       "z" "verdict");
  List.iter
    (fun c ->
      let ratio = if Float.is_nan c.ratio then "-" else Printf.sprintf "%.2fx" c.ratio in
      let z = match c.z_score with None -> "-" | Some z -> Printf.sprintf "%.1f" z in
      Buffer.add_string buf
        (Printf.sprintf "%-28s %12s %12s %+12.3f %8s %8s %s\n" c.c_id (pp_s c.old_s) (pp_s c.new_s)
           (c.delta_s *. 1e3) ratio z (verdict_to_string c.verdict)))
    comparisons;
  let n = List.length (List.filter (fun c -> c.verdict = Regression) comparisons) in
  Buffer.add_string buf
    (if n = 0 then "no confirmed regressions\n"
     else Printf.sprintf "%d confirmed regression%s\n" n (if n = 1 then "" else "s"));
  Buffer.contents buf

let to_csv comparisons =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "experiment,old_seconds,new_seconds,delta_seconds,ratio,z,verdict\n";
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%.6f,%.6f,%.6f,%s,%s,%s\n" c.c_id c.old_s c.new_s c.delta_s
           (if Float.is_nan c.ratio then "" else Printf.sprintf "%.4f" c.ratio)
           (match c.z_score with None -> "" | Some z -> Printf.sprintf "%.3f" z)
           (verdict_to_string c.verdict)))
    comparisons;
  Buffer.contents buf

let comparison_to_json c =
  Jsonx.Obj
    [
      ("id", Jsonx.Str c.c_id);
      ("old_seconds", Jsonx.Num c.old_s);
      ("new_seconds", Jsonx.Num c.new_s);
      ("delta_seconds", Jsonx.Num c.delta_s);
      ("ratio", if Float.is_nan c.ratio then Jsonx.Null else Jsonx.Num c.ratio);
      ("z", match c.z_score with None -> Jsonx.Null | Some z -> Jsonx.Num z);
      ("verdict", Jsonx.Str (String.lowercase_ascii (verdict_to_string c.verdict)));
    ]

let diff_to_json ?(noise = default_noise) comparisons =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("schema", Jsonx.Str "ddm.perf.diff/v1");
         ( "noise",
           Jsonx.Obj
             [
               ("rel_tolerance", Jsonx.Num noise.rel_tolerance);
               ("min_delta_s", Jsonx.Num noise.min_delta_s);
               ("z", Jsonx.Num noise.z);
             ] );
         ("comparisons", Jsonx.Arr (List.map comparison_to_json comparisons));
         ( "regressions",
           Jsonx.Num
             (float_of_int (List.length (List.filter (fun c -> c.verdict = Regression) comparisons))) );
       ])
