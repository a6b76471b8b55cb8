(* One benchmark run: a workload end to end ([--trace 0]) or its traced
   per-layer replay ([--trace 1]).  Human-readable lines come first; the
   last line of standard output is the JSON result.  perfbench/README.md
   describes the workloads and metrics. *)

open Perfbench

let setup_reps = 5
let client_timeout_s = 10.
let healthz_probes = 200

(* closed loop from one thread, at most nproc connections in flight (two
   at most, so the load shape does not change with the host's size) *)
let in_flight = max 1 (min 2 (Sysinfo.nproc ()))
let now = Trace.now_mono_s

(* ------------------------------ files ------------------------------- *)

let work_root = ".perfbench_work"

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat p n)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* An empty store for one server or replay.  Stores are removed with the
   run's work directory, when the run ends: deleting entry files between
   set-ups would put the filesystem's cleanup of them inside the next
   timed phase. *)
let dir_counter = ref 0

let new_store ~work =
  incr dir_counter;
  let dir = Filename.concat work (Printf.sprintf "store-%d" !dir_counter) in
  Unix.mkdir dir 0o755;
  dir

(* ------------------------------ server ------------------------------ *)

(* `ddm serve`'s defaults (2 workers, LRU 256, queue 64, 5 s budget) with
   its durable tier on, and its switches: metrics and tracing on. *)
let server_config dir = { Serve.default_config with Serve.cache_dir = Some dir }

let with_server dir f =
  Metrics.set_enabled true;
  Trace.set_enabled true;
  match Serve.start (server_config dir) with
  | Error e -> failwith ("serve did not start: " ^ e)
  | Ok srv ->
    Snapring.start ();
    Fun.protect
      ~finally:(fun () ->
        Serve.stop srv;
        Snapring.stop ())
      (fun () -> f srv)

(* ----------------------------- results ------------------------------ *)

(* What a pass keeps of its responses is fixed in size however many ops
   it records, so the benchmark's own bookkeeping adds a constant to the
   process's peak RSS:
   - replies to ids of the plan's key table, interned by (id, status,
     body) with their counts: a hot key answered 100 000 times is kept
     once, and checked once.  A repeat only bumps its count, so the
     table never holds a young key, which would be promoted to the major
     heap with its body at every minor collection;
   - replies to ids sent once, reduced to a [Check.reply] as they arrive,
     into columns allocated (and so made resident) before the pass;
   - latencies in a [Pct.hist];
   - completions counted per ninth of the timed phase. *)
let slices = 9

(* room for 2 500 fresh ops a second over a 40 s run, about forty times
   what serve-cold-mix completes *)
let fresh_cap = 100_000

type results = {
  keys : int;  (** ids below this name the key table *)
  keyed : (int * int * string, int ref) Hashtbl.t;
  f_status : int array;  (** fresh replies, by id - keys *)
  f_key : int array;
  f_p : Float.Array.t;
  mutable fresh : int;  (** fresh ids answered: keys .. keys + fresh - 1 *)
  lat : Pct.hist;
  clock : clock;
  per_slice : int array;
  mutable window : (float * float) option;  (** start and length of the timed phase *)
  mutable n : int;
}

(* all floats, so stored unboxed and updated without allocating *)
and clock = { mutable lat_sum : float; mutable last : float  (** the latest completion *) }

let results ~keys ~fresh_cap =
  { keys; keyed = Hashtbl.create 1024; f_status = Array.make fresh_cap 0;
    f_key = Array.make fresh_cap 0; f_p = Float.Array.make fresh_cap 0.; fresh = 0;
    lat = Pct.hist (); clock = { lat_sum = 0.; last = 0. }; per_slice = Array.make slices 0;
    window = None; n = 0 }

let record res (r : Client.result) =
  let id = r.Client.id and status = r.Client.status and body = r.Client.body in
  if id < res.keys then begin
    let k = (id, status, body) in
    match Hashtbl.find_opt res.keyed k with Some c -> incr c | None -> Hashtbl.add res.keyed k (ref 1)
  end
  else begin
    let i = id - res.keys in
    if i >= Array.length res.f_status then
      failwith (Printf.sprintf "more than %d fresh ops in one pass (raise fresh_cap)" (Array.length res.f_status));
    let rp = Check.reply ~status ~body in
    res.f_status.(i) <- rp.Check.status;
    res.f_key.(i) <- rp.Check.key_hash;
    Float.Array.set res.f_p i rp.Check.p;
    res.fresh <- max res.fresh (i + 1)
  end;
  let t = now () in
  Pct.observe res.lat r.Client.latency_s;
  res.clock.lat_sum <- res.clock.lat_sum +. r.Client.latency_s;
  Option.iter
    (fun (t0, len) ->
      let j = int_of_float (float_of_int slices *. (t -. t0) /. len) in
      if j >= 0 && j < slices then res.per_slice.(j) <- res.per_slice.(j) + 1)
    res.window;
  res.clock.last <- t;
  res.n <- res.n + 1

(* The ids a pass got a response for. *)
let answered res =
  let ids = Hashtbl.create 256 in
  Hashtbl.iter (fun (id, _, _) _ -> Hashtbl.replace ids id ()) res.keyed;
  List.of_seq (Hashtbl.to_seq_keys ids) @ List.init res.fresh (fun i -> res.keys + i)

let send_ids ~port ~plan ids res =
  let i = ref 0 in
  Client.run ~port ~in_flight ~timeout_s:client_timeout_s
    ~next:(fun () ->
      if !i >= Array.length ids then None
      else begin
        incr i;
        let id = ids.(!i - 1) in
        Some (id, ("POST", "/eval", plan.Gen.keys.(id)))
      end)
    ~on_result:(record res)

(* The timed phase: requests start until [seconds] have passed, and the
   phase ends when the last one completes.  Returns how many were sent. *)
let timed ~port ~plan ~seconds res =
  let t0 = now () in
  res.window <- Some (t0, seconds);
  let sent = ref 0 in
  Client.run ~port ~in_flight ~timeout_s:client_timeout_s
    ~next:(fun () ->
      if now () >= t0 +. seconds then None
      else begin
        incr sent;
        let id, body = plan.Gen.next () in
        Some (id, ("POST", "/eval", body))
      end)
    ~on_result:(record res);
  !sent

(* [reps] set-ups, each on a fresh store and server: start (the durable
   tier's recovery included) and warm-up are timed; the last set-up's
   server goes on into [f]. *)
let serve_session ~plan ~work ~reps ~warm f =
  let rec go k times =
    let dir = new_store ~work in
    let t0 = now () in
    let setup, r =
      with_server dir (fun srv ->
        send_ids ~port:(Serve.port srv) ~plan plan.Gen.warmup warm;
        let setup = now () -. t0 in
        (setup, if k = reps then Some (f srv) else None))
    in
    match r with
    | Some v -> (v, List.rev (setup :: times))
    | None -> go (k + 1) (setup :: times)
  in
  go 1 []

(* ---------------------------- checking ------------------------------ *)

(* Reference answers for [ids], solved on two domains outside any timed
   window. *)
let expect_all ~body_of ids =
  let todo = Array.of_list (List.sort_uniq compare ids) in
  let solve id = (id, Check.expected_of_body (body_of id)) in
  let half = Array.length todo / 2 in
  let other = Domain.spawn (fun () -> Array.map solve (Array.sub todo 0 half)) in
  let mine = Array.map solve (Array.sub todo half (Array.length todo - half)) in
  let expected = Hashtbl.create (Array.length todo) in
  Array.iter (fun (id, e) -> Hashtbl.replace expected id e) (Array.append (Domain.join other) mine);
  expected

type verdict = { ok : int; bad : int; errors : string list; canary_errors : string list }

(* Canaries are ids of the key table, so their full responses are at
   hand: a canary counts as failed when its answer is wrong or when the
   paper's value does not hold. *)
let verify ~body_of ~expected res =
  let outcome id rp = match Hashtbl.find expected id with Error m -> Error m | Ok e -> Check.verify e rp in
  let tally v id times = function
    | Ok () -> { v with ok = v.ok + times }
    | Error m ->
      let m = Printf.sprintf "request %d: %s" id m in
      { v with bad = v.bad + times; errors = (if List.length v.errors < 5 then m :: v.errors else v.errors) }
  in
  let v =
    Hashtbl.fold
      (fun (id, status, body) times v ->
        let o = outcome id (Check.reply ~status ~body) in
        let v = tally v id !times o in
        match (Check.canary (body_of id) ~response:body, o) with
        | None, _ | Some (Ok ()), Ok () -> v
        | Some (Error m), _ | Some (Ok ()), Error m -> { v with canary_errors = m :: v.canary_errors })
      res.keyed
      { ok = 0; bad = 0; errors = []; canary_errors = [] }
  in
  let v = ref v in
  for i = 0 to res.fresh - 1 do
    let id = res.keys + i in
    let rp = { Check.status = res.f_status.(i); key_hash = res.f_key.(i); p = Float.Array.get res.f_p i } in
    v := tally !v id 1 (outcome id rp)
  done;
  !v

(* Checks the warm-up and timed responses of a serve pass whose timed
   phase sent [sent] requests, printing the first few errors and any
   failed canary. *)
let check_pass ~w ~seed ~sent ~warm res =
  let body_of = Gen.replay w ~seed sent in
  let expected = expect_all ~body_of (answered warm @ answered res) in
  let report label v =
    List.iter (fun m -> Printf.printf "  %s error: %s\n" label m) (List.rev v.errors);
    List.iter (fun m -> Printf.printf "  CANARY FAILED (%s): %s\n" label m) v.canary_errors;
    v
  in
  let vw = report "warm-up" (verify ~body_of ~expected warm) in
  let vt = report "timed" (verify ~body_of ~expected res) in
  (vw, vt)

let canaries_ok (vw, vt) = vw.canary_errors = [] && vt.canary_errors = []
let pass_correct ((vw, vt) as v) = vw.bad = 0 && vt.bad = 0 && canaries_ok v

(* ----------------------------- output ------------------------------- *)

let finite v = if Float.is_finite v then v else 0.
let metric name unit v = (name, Jsonx.Obj [ ("value", Jsonx.Num (finite v)); ("unit", Jsonx.Str unit) ])

let result_line ~correct ~attempted ~failed metrics =
  Jsonx.to_string
    (Jsonx.Obj
       [ ("correct", Jsonx.Bool correct);
         ("attempted", Jsonx.Num (float_of_int attempted));
         ("failed", Jsonx.Num (float_of_int failed));
         ("metrics", Jsonx.Obj metrics) ])

let meta ~w ~seed ~seconds ~trace ~store_fs ~steal =
  let cfg = Serve.default_config in
  Printf.printf "meta %s\n"
    (Jsonx.to_string
       (Jsonx.Obj
          [ ("workload", Jsonx.Str (Gen.workload_name w));
            ("seed", Jsonx.Num (float_of_int seed));
            ("seconds", Jsonx.Num seconds);
            ("trace", Jsonx.Bool trace);
            ("git_rev", Jsonx.Str (Sysinfo.git_rev ()));
            ("nproc", Jsonx.Num (float_of_int (Sysinfo.nproc ())));
            ("cpus_allowed", Jsonx.Str (Sysinfo.cpus_allowed ()));
            ("ocaml", Jsonx.Str Sys.ocaml_version);
            ( "server",
              Jsonx.Obj
                [ ("workers", Jsonx.Num (float_of_int cfg.Serve.workers));
                  ("lru_cap", Jsonx.Num (float_of_int cfg.Serve.lru_cap));
                  ("queue_depth", Jsonx.Num (float_of_int cfg.Serve.queue_depth));
                  ("budget_ms", Jsonx.Num (float_of_int cfg.Serve.default_budget_ms));
                  ("durable", Jsonx.Bool true);
                  ("metrics_trace_switches", Jsonx.Bool true) ] );
            ("client_in_flight", Jsonx.Num (float_of_int in_flight));
            ("store_fs", Jsonx.Str store_fs);
            ("cpu_steal_share", Jsonx.Num steal) ]))

let line name value unit note = Printf.printf "  %-26s %14.6g %-6s %s\n" name value unit note

(* Throughput as the median over nine equal slices of the timed phase: a
   burst of host interference that covers less than half the phase leaves
   it alone.  Scaled by the share of ops verified correct. *)
let throughput res =
  match res.window with
  | None -> 0.
  | Some (_, len) ->
    Pct.median_exn (Array.map (fun c -> float_of_int c *. float_of_int slices /. len) res.per_slice)

(* [rss] is VmHWM read as the timed phase ends, before the output checks
   add the benchmark's own memory to it. *)
let e2e_report ~v ~res ~setup_times ~rss ~setup_rss =
  let attempted = res.n in
  let ops_per_s =
    if attempted = 0 then 0. else throughput res *. float_of_int v.ok /. float_of_int attempted
  in
  let last = res.clock.last in
  let t0 = match res.window with Some (t0, _) -> t0 | None -> last in
  let elapsed = last -. t0 in
  let p50 = Option.value (Pct.quantile res.lat 0.5) ~default:0. in
  (* Too few ops beyond p99 (a much slower program) reports the slowest
     op's bucket instead: an upper bound, so the slowdown still shows. *)
  let p99, p99_note =
    match Pct.quantile res.lat 0.99 with
    | Some q -> (q, "")
    | None -> (Option.value (Pct.max_observed res.lat) ~default:0., "; too few ops for p99, the slowest op instead")
  in
  let setup_s = Pct.median_exn (Array.of_list setup_times) in
  print_endline "end-to-end:";
  line "ops_per_s" ops_per_s "1/s"
    (Printf.sprintf "median of %d slices; %d verified ops in %.3f s (%.6g/s overall)" slices v.ok
       elapsed
       (float_of_int v.ok /. elapsed));
  line "latency_p50_ms" (1000. *. p50) "ms" (Printf.sprintf "over %d ops" attempted);
  line "latency_p99_ms" (1000. *. p99) "ms" (Printf.sprintf "over %d ops%s" attempted p99_note);
  line "failed_frac"
    (if attempted = 0 then 0. else float_of_int v.bad /. float_of_int attempted)
    "ratio" (Printf.sprintf "%d of %d ops" v.bad attempted);
  line "setup_s" setup_s "s"
    (Printf.sprintf "median of %d set-ups, %.4f to %.4f s" (List.length setup_times)
       (List.fold_left Float.min infinity setup_times)
       (List.fold_left Float.max 0. setup_times));
  line "peak_rss_mb" rss "MB"
    (Printf.sprintf "VmHWM when the timed phase ends (%.1f MB when it began)"
       (Option.value setup_rss ~default:0.));
  [ metric "ops_per_s" "1/s" ops_per_s; metric "latency_p50_ms" "ms" (1000. *. p50);
    metric "latency_p99_ms" "ms" (1000. *. p99); metric "setup_s" "s" setup_s;
    metric "peak_rss_mb" "MB" rss ]

(* --------------------------- end to end ----------------------------- *)

let serve_e2e ~w ~seed ~seconds ~work =
  let plan = Gen.plan w ~seed in
  let keys = Array.length plan.Gen.keys in
  let warm = results ~keys ~fresh_cap:0 and res = results ~keys ~fresh_cap in
  let (sent, steal, setup_rss), setup_times =
    serve_session ~plan ~work ~reps:setup_reps ~warm (fun srv ->
      let setup_rss = Sysinfo.peak_rss_mb () in
      let c0 = Sysinfo.cpu () in
      let sent = timed ~port:(Serve.port srv) ~plan ~seconds res in
      (sent, Sysinfo.steal_share c0 (Sysinfo.cpu ()), setup_rss))
  in
  let rss = Option.value (Sysinfo.peak_rss_mb ()) ~default:0. in
  let v = check_pass ~w ~seed ~sent ~warm res in
  let metrics = e2e_report ~v:(snd v) ~res ~setup_times ~rss ~setup_rss in
  (metrics, steal, v, res.n)

(* ----------------------------- traced ------------------------------- *)

type http = {
  rtt_p50_us : float;
  queue_wait_ms : float;
  solve_ms : float;
  cache_lookup_us : float;
  unattributed : float;
}

let phase_mean stats name =
  match Jsonx.member "latency" stats with
  | Some l -> (
    match Option.bind (Jsonx.member "phases" l) (Jsonx.member name) with
    | Some p -> Option.value (Jsonx.float_member "mean" p) ~default:0.
    | None -> 0.)
  | None -> 0.

(* A workload's traced run: an HTTP pass against a live server for a third
   of [seconds] (its /stats phase means and /healthz round trips), then
   the same requests replayed in-process twice, untraced and traced, on
   fresh stores. *)
let serve_traced ~w ~seed ~work ~seconds =
  let plan = Gen.plan w ~seed in
  let keys = Array.length plan.Gen.keys in
  Metrics.reset ();
  let warm = results ~keys ~fresh_cap:0 and res = results ~keys ~fresh_cap in
  let (sent, stats, rtts), _ =
    serve_session ~plan ~work ~reps:1 ~warm (fun srv ->
      let port = Serve.port srv in
      let sent = timed ~port ~plan ~seconds:(seconds /. 3.) res in
      let stats = Jsonx.parse (Client.once ~port ~timeout_s:client_timeout_s "/stats").Client.body in
      let rtts =
        Array.init healthz_probes (fun _ ->
          (Client.once ~port ~timeout_s:client_timeout_s "/healthz").Client.latency_s)
      in
      (sent, stats, rtts))
  in
  let stats = match stats with Ok j -> j | Error e -> failwith ("GET /stats: " ^ e) in
  let v = check_pass ~w ~seed ~sent ~warm res in
  let replay ~traced limit =
    let t = Layers.create () and p = Gen.plan w ~seed in
    Trace.set_enabled traced;
    Fun.protect
      ~finally:(fun () -> Trace.set_enabled true)
      (fun () ->
        Layers.with_env t ~dir:(new_store ~work) (fun env ->
          Array.iter (fun id -> ignore (Layers.request t env p.Gen.keys.(id))) p.Gen.warmup;
          let t0 = now () in
          let k = ref 0 and attributed = ref 0. in
          while
            !k < sent && match limit with `Count m -> !k < m | `Seconds s -> now () -. t0 < s
          do
            attributed := !attributed +. Layers.request t env (snd (p.Gen.next ()));
            incr k
          done;
          (t, !k, now () -. t0, !attributed)))
  in
  let _, m, t_plain, _ = replay ~traced:false (`Seconds (seconds /. 3.)) in
  let table, _, t_traced, attributed = replay ~traced:true (`Count m) in
  let rtt = Pct.median_exn rtts in
  let e2e_mean = res.clock.lat_sum /. float_of_int (max 1 res.n) in
  let per_op = if m = 0 then 0. else attributed /. float_of_int m in
  Printf.printf "http pass: %d timed ops (mean %.4f ms); replay: %d ops, %.3f s untraced vs %.3f s traced\n"
    res.n (1000. *. e2e_mean) m t_plain t_traced;
  let http =
    {
      rtt_p50_us = 1e6 *. rtt;
      queue_wait_ms = 1000. *. phase_mean stats "queue_wait";
      solve_ms = 1000. *. phase_mean stats "solve";
      cache_lookup_us = 1e6 *. phase_mean stats "cache_lookup";
      unattributed = (if e2e_mean > 0. then 1. -. ((per_op +. rtt) /. e2e_mean) else 0.);
    }
  in
  (table, http, (if t_traced > 0. then 1. -. (t_plain /. t_traced) else 0.), v, res.n)

(* Layers a workload's stream never reaches are measured on a small
   census instead, so every per-layer metric is a measurement: substrates
   on the first few cold-mix requests of each kind, the durable tier's hit
   path on fifty stored answers asked for again through an empty LRU, the
   closure sampler on two `ddm eval` instances. *)
let substrate_layers = [ "threshold.fold"; "engine.grid"; "fault_engine.grid"; "mc_kernel"; "symbolic.opt" ]

let census ~seed ~work ~tables =
  let covered name = List.exists (fun (_, t) -> Layers.calls t name > 0) tables in
  let t = Layers.create () in
  Trace.set_enabled true;
  ignore (Trace.drain ());
  if not (covered "cache_store.find_hit") then begin
    let bodies = Gen.exact_bodies ~seed 50 in
    let dir = new_store ~work in
    let fill = Layers.create () in
    Layers.with_env fill ~dir (fun env -> List.iter (fun b -> ignore (Layers.request fill env b)) bodies);
    Layers.with_env t ~dir (fun env -> List.iter (fun b -> ignore (Layers.request t env b)) bodies)
  end;
  let missing = List.filter (fun l -> not (covered l)) substrate_layers in
  if missing <> [] then begin
    let p = Gen.plan Gen.Serve_cold_mix ~seed in
    let tries = ref 0 in
    while !tries < 1000 && List.exists (fun l -> Layers.calls t l < 3) missing do
      incr tries;
      let b = snd (p.Gen.next ()) in
      match Solver.parse b with
      | Ok r when List.mem (Layers.substrate r) missing && Layers.calls t (Layers.substrate r) < 3 ->
        Layers.solve_traced t b
      | _ -> ()
    done
  end;
  if not (covered "mc.closure") then begin
    let next = Gen.cli_stream ~seed in
    for _ = 1 to 2 do
      ignore (Layers.cli_request t (next ()))
    done
  end;
  t

let per_layer ~tables ~(http : http) ~overhead =
  let find name = List.find_opt (fun (_, t) -> Layers.calls t name > 0) tables in
  let med scale name =
    match find name with
    | Some (src, t) -> (scale *. Option.value (Layers.median_s t name) ~default:0., src)
    | None -> (0., "none")
  in
  let ratio num den =
    match List.find_opt (fun (_, t) -> Layers.counter t den > 0.) tables with
    | Some (src, t) -> (Layers.counter t num /. Layers.counter t den, src)
    | None -> (0., "none")
  in
  let rate name =
    match find name with
    | Some (src, t) -> (Option.value (Layers.work_rate t name) ~default:0., src)
    | None -> (0., "none")
  in
  let bytes =
    match find "cache_store.put" with
    | Some (src, t) ->
      (Layers.counter t "cache_store.bytes" /. float_of_int (Layers.calls t "cache_store.put"), src)
    | None -> (0., "none")
  in
  let h v = (v, "http") in
  [ ("httpd.rtt_p50_us", "us", h http.rtt_p50_us);
    ("solver.parse_us", "us", med 1e6 "solver.parse");
    ("solver.cache_key_us", "us", med 1e6 "solver.cache_key");
    ("solver.render_us", "us", med 1e6 "solver.render");
    ("lru.find_us", "us", med 1e6 "lru.find");
    ("lru.hit_ratio", "ratio", ratio "lru.hits" "lru.lookups");
    ("cache_store.find_us", "us", med 1e6 "cache_store.find_hit");
    ("cache_store.hit_ratio", "ratio", ratio "cache_store.hits" "cache_store.lookups");
    ("cache_store.put_ms", "ms", med 1e3 "cache_store.put");
    ("cache_store.bytes_written", "B/put", bytes);
    ("cache_store.open_ms", "ms", med 1e3 "cache_store.open");
    ("workq.handoff_ms", "ms", med 1e3 "workq.handoff");
    ("workq.accepted_ratio", "ratio", ratio "workq.accepted" "workq.pushes");
    ("serve.queue_wait_ms", "ms", h http.queue_wait_ms);
    ("serve.solve_ms", "ms", h http.solve_ms);
    ("serve.cache_lookup_us", "us", h http.cache_lookup_us);
    ("serve.unattributed_frac", "ratio", h http.unattributed);
    ("solver.answered_ratio", "ratio", ratio "solver.answered" "solver.started");
    ("threshold.fold_ms", "ms", med 1e3 "threshold.fold");
    ("engine.grid_ms", "ms", med 1e3 "engine.grid");
    ("fault_engine.grid_ms", "ms", med 1e3 "fault_engine.grid");
    ("mc_kernel.samples_per_s", "1/s", rate "mc_kernel");
    ("symbolic.opt_ms", "ms", med 1e3 "symbolic.opt");
    ("mc.samples_per_s", "1/s", rate "mc.closure");
    ("trace.overhead_frac", "ratio", (overhead, "replay")) ]

let print_layer_table tables =
  Printf.printf "  %-24s %-8s %8s %12s %12s %14s\n" "layer" "source" "calls" "total_ms" "self_ms"
    "median_us/call";
  List.iter
    (fun (src, t) ->
      List.iter
        (fun (name, (l : Layers.layer)) ->
          Printf.printf "  %-24s %-8s %8d %12.3f %12.3f %14.3f\n" name src l.Layers.calls
            (1000. *. l.Layers.total_s) (1000. *. l.Layers.self_s)
            (1e6 *. Option.value (Layers.median_s t name) ~default:0.))
        (Layers.rows t))
    tables

let traced_run ~w ~seed ~seconds ~work =
  let table, http, overhead, v, attempted = serve_traced ~w ~seed ~work ~seconds in
  let tables = [ ("replay", table) ] in
  let tables = tables @ [ ("census", census ~seed ~work ~tables) ] in
  print_endline "per-layer (traced replay; 'census' = measured outside the workload's stream):";
  print_layer_table tables;
  let rows = per_layer ~tables ~http ~overhead in
  print_endline "per-layer metrics:";
  List.iter (fun (name, unit, (value, src)) -> line name value unit ("from " ^ src)) rows;
  (List.map (fun (name, unit, (value, _)) -> metric name unit value) rows, v, attempted)

(* ------------------------------ main -------------------------------- *)

let usage = "ddmbench --workload NAME --seed N --seconds S [--trace 0|1]"

let args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref 0 in
  let names = String.concat " | " (List.map fst Gen.workloads) in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME " ^ names);
      ("--seed", Arg.Int (fun v -> seed := Some v), "N workload seed");
      ("--seconds", Arg.Float (fun v -> seconds := Some v), "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end to end (0) or traced per-layer run (1)") ]
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad m | Arg.Help m ->
     prerr_string m;
     exit 2);
  match (Gen.workload_of_name !workload, !seed, !seconds) with
  | Some w, Some s, Some t when t > 0. && (!trace = 0 || !trace = 1) -> (w, s, t, !trace = 1)
  | _ ->
    prerr_endline usage;
    exit 2

(* A failed paper canary exits with code 3, after its result line. *)
let () =
  let w, seed, seconds, trace = args () in
  (try Unix.mkdir work_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let work = Filename.concat work_root (Printf.sprintf "%s-%d" (Gen.workload_name w) (Unix.getpid ())) in
  Unix.mkdir work 0o755;
  let store_fs = Sysinfo.fs_type work in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" (Gen.workload_name w) seed seconds
    (if trace then 1 else 0);
  let line_out, v =
    Fun.protect
      ~finally:(fun () ->
        rm_rf work;
        try Unix.rmdir work_root with Unix.Unix_error _ -> ())
      (fun () ->
        let c0 = Sysinfo.cpu () in
        let metrics, v, attempted, steal =
          if trace then
            let metrics, v, attempted = traced_run ~w ~seed ~seconds ~work in
            (metrics, v, attempted, Sysinfo.steal_share c0 (Sysinfo.cpu ()))
          else
            let metrics, steal, v, attempted = serve_e2e ~w ~seed ~seconds ~work in
            (metrics, v, attempted, steal)
        in
        meta ~w ~seed ~seconds ~trace ~store_fs ~steal;
        (result_line ~correct:(pass_correct v) ~attempted ~failed:(snd v).bad metrics, v))
  in
  print_endline line_out;
  exit (if canaries_ok v then 0 else 3)
