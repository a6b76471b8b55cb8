(* The serve orchestrator: admission on the Httpd domain, a supervised
   pool of solver domains, and a watchdog that keeps the pool at
   strength.  The one invariant everything here defends: every accepted
   request gets exactly one terminal response — enforced by a per-job
   atomic CAS, with the watchdog and the drain path answering for
   workers that cannot.

   Telemetry rides the same invariant: every job is stamped at
   admission, dequeue, solve start and solve end, and the winner of the
   terminal CAS (worker, watchdog, or drain path — whichever domain it
   is on) observes the request's total latency into exactly one
   per-outcome histogram, plus the deadline-budget-consumed histogram,
   and emits a synthetic request span on its own trace track.  Outcome
   histograms therefore reconcile exactly with the terminal-response
   counter at quiescence; the ordering discipline (observe before
   counting the response) means a mid-flight scrape can only ever see
   outcome mass >= responses, never behind. *)

let m_requests = Metrics.counter ~help:"Eval requests received" "ddm_serve_requests_total"
let m_shed = Metrics.counter ~help:"Eval requests shed at the queue watermark" "ddm_serve_shed_total"
let m_hits = Metrics.counter ~help:"Answer-cache hits (both tiers)" "ddm_serve_cache_hits_total"
let m_misses = Metrics.counter ~help:"Answer-cache misses" "ddm_serve_cache_misses_total"

let m_responses =
  Metrics.counter ~help:"Terminal responses sent (inline and deferred)" "ddm_serve_responses_total"

let m_deadline =
  Metrics.counter ~help:"Eval jobs that expired their deadline budget"
    "ddm_serve_deadline_expired_total"

let m_respawns =
  Metrics.counter ~help:"Solver workers respawned by the watchdog" "ddm_serve_worker_respawns_total"

let m_write_failures =
  Metrics.counter ~help:"Durable cache writes that failed" "ddm_serve_cache_write_failures_total"

(* --------------------------- latency metrics ------------------------- *)

(* 0.5 ms .. ~16 s in sixteen log-spaced buckets — wide enough for both a
   sub-millisecond LRU hit and a budget-bounded exact solve. *)
let latency_buckets = Metrics.exponential_buckets ~start:5e-4 ~factor:2. ~count:16

let h_queue_wait =
  Metrics.histogram ~buckets:latency_buckets
    ~help:"Admission-to-dequeue wait for accepted eval jobs (seconds)"
    "ddm_serve_queue_wait_seconds"

let h_solve =
  Metrics.histogram ~buckets:latency_buckets
    ~help:"Time spent in Solver.solve per attempt, including cancelled ones (seconds)"
    "ddm_serve_solve_seconds"

let h_cache_lookup =
  Metrics.histogram ~buckets:latency_buckets
    ~help:"Answer-cache lookup latency at admission, both tiers (seconds)"
    "ddm_serve_cache_lookup_seconds"

(* Fraction of the request's deadline budget consumed at the terminal
   response; > 1 means the answer went out past its own deadline. *)
let budget_used_buckets = [| 0.05; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0; 1.25; 2.0; 5.0 |]

let h_budget_used =
  Metrics.histogram ~buckets:budget_used_buckets
    ~help:"Fraction of the deadline budget consumed at the terminal response"
    "ddm_serve_budget_used_ratio"

let g_queue_depth =
  Metrics.gauge ~help:"Eval queue depth, sampled by the watchdog" "ddm_serve_queue_depth"

(* Every terminal response lands in exactly one of these outcomes; the
   total across the seven histogram counts reconciles with
   [ddm_serve_responses_total] (and with [h_budget_used]'s count). *)
type outcome = Hit_lru | Hit_disk | Cold | Shed | Expired_queued | Timeout | Failed

let all_outcomes = [ Hit_lru; Hit_disk; Cold; Shed; Expired_queued; Timeout; Failed ]

let outcome_label = function
  | Hit_lru -> "hit_lru"
  | Hit_disk -> "hit_disk"
  | Cold -> "cold"
  | Shed -> "shed"
  | Expired_queued -> "expired_queued"
  | Timeout -> "timeout"
  | Failed -> "error"

let request_seconds_help = function
  | Hit_lru -> "Total latency of requests answered from the in-memory LRU tier"
  | Hit_disk -> "Total latency of requests answered from the durable cache tier"
  | Cold -> "Total latency of requests solved cold"
  | Shed -> "Total latency of requests shed at the queue watermark"
  | Expired_queued -> "Total latency of requests whose deadline expired while queued"
  | Timeout -> "Total latency of requests whose solve exceeded the deadline"
  | Failed -> "Total latency of requests answered with an error (400/500/503)"

let h_total =
  Metrics.histogram ~buckets:latency_buckets
    ~help:"Total request latency, admission to terminal response, all outcomes (seconds)"
    "ddm_serve_request_seconds"

let outcome_histograms =
  List.map
    (fun o ->
      ( o,
        Metrics.histogram ~buckets:latency_buckets ~help:(request_seconds_help o)
          ("ddm_serve_request_seconds_" ^ outcome_label o) ))
    all_outcomes

let h_outcome o = List.assq o outcome_histograms

(* the terminal span's name, built once rather than on every terminal *)
let outcome_spans = List.map (fun o -> (o, "serve.request." ^ outcome_label o)) all_outcomes

type chaos = {
  slow_rate : float;
  slow_s : float;
  panic_rate : float;
  diskfail_rate : float;
  seed : int;
}

type config = {
  host : string;
  port : int;
  workers : int;
  solver_domains : int;
  queue_depth : int;
  default_budget_ms : int;
  lru_cap : int;
  cache_dir : string option;
  ledger_file : string option;
  slow_request_s : float;
  chaos : chaos option;
}

(* Slack past a job's deadline before the watchdog supersedes its worker. *)
let stuck_grace_s = 0.5
let ledger_rotate_bytes = 4 * 1024 * 1024
let default_drain_deadline_s = 5.0

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 2;
    solver_domains = 1;
    queue_depth = 64;
    default_budget_ms = 5_000;
    lru_cap = 256;
    cache_dir = None;
    ledger_file = None;
    slow_request_s = 1.0;
    chaos = None;
  }

type job = {
  id : int;
  jreq : Solver.req;
  key : string;
  client : Unix.file_descr;
  budget_ms : int;
  deadline_mono_s : float;
  responded : bool Atomic.t;
  (* phase stamps: admission is immutable, the rest are written by the
     worker that owns the job and read by whichever domain answers (the
     watchdog may answer for a wedged worker), hence atomic *)
  t_admit_mono_s : float;
  t_admit_wall_s : float;
  t_dequeue_mono_s : float Atomic.t;  (** 0 until dequeued *)
  t_solve_start_mono_s : float Atomic.t;  (** 0 until the solve starts *)
  t_solve_end_mono_s : float Atomic.t;  (** 0 until the solve returns *)
}

type worker = {
  wid : int;
  alive : bool Atomic.t;  (** cleared by the worker itself on any exit *)
  superseded : bool Atomic.t;  (** set by the supervisor: finish silently and exit *)
  current : job option Atomic.t;
}

type t = {
  cfg : config;
  mutable httpd : Httpd.server option;
  queue : job Workq.t;
  lru : Solver.answer Lru.t;
  disk : Cache_store.t option;
  recovery : Cache_store.report option;
  chaos_mu : Mutex.t;
  chaos_rng : Rng.t option;
  ledger_mu : Mutex.t;
  draining : bool Atomic.t;
  next_id : int Atomic.t;
  next_wid : int Atomic.t;
  pool_mu : Mutex.t;
  mutable pool : (worker * unit Domain.t) list;
  watchdog_stop : bool Atomic.t;
  mutable watchdog : unit Domain.t option;
  started_mono_s : float;
  drain_rate : float Atomic.t;
      (** EWMA of deferred terminal responses per second, maintained by
          the watchdog; feeds the Retry-After estimate.  Written by one
          domain, read by the admission path — set/get only, no CAS. *)
  (* terminal-response accounting (exact, independent of the metrics switch) *)
  c_requests : int Atomic.t;
  c_accepted : int Atomic.t;
  c_shed : int Atomic.t;
  c_hits_lru : int Atomic.t;
  c_hits_disk : int Atomic.t;
  c_misses : int Atomic.t;
  c_inline : int Atomic.t;  (** terminal responses written by the handler *)
  c_deferred : int Atomic.t;  (** terminal responses written for accepted jobs *)
  c_suppressed : int Atomic.t;  (** late/duplicate response attempts never sent *)
  c_deadline : int Atomic.t;
  c_solved : int Atomic.t;
  c_panics : int Atomic.t;
  c_respawns : int Atomic.t;
  c_write_failures : int Atomic.t;
}

(* ------------------------------ bodies ------------------------------ *)

let eval_schema = "ddm.eval/v1"

let answer_body ?(extra = []) ~cached ~source ~key (a : Solver.answer) =
  Jsonx.to_string
    (Jsonx.Obj
       ([ ("schema", Jsonx.Str eval_schema); ("cached", Jsonx.Bool cached);
          ("source", Jsonx.Str source); ("key", Jsonx.Str key); ("p", Jsonx.Num a.Solver.p) ]
       @ a.Solver.detail @ extra))

let error_body ?(extra = []) error =
  Jsonx.to_string
    (Jsonx.Obj ([ ("schema", Jsonx.Str eval_schema); ("error", Jsonx.Str error) ] @ extra))

let progress_fields ~cells_done ~cells_total =
  [ ( "progress",
      Jsonx.Obj
        [ ("cells_done", Jsonx.Num (float_of_int cells_done));
          ("cells_total", Jsonx.Num (float_of_int cells_total)) ] ) ]

(* ------------------------- chaos and caching ------------------------ *)

let chaos_draw t rate =
  rate > 0.
  &&
  match t.chaos_rng with
  | None -> false
  | Some rng -> Mutex.protect t.chaos_mu (fun () -> Rng.bernoulli rng rate)

(* A hit names its tier as its outcome: [Hit_lru] or [Hit_disk]. *)
let cache_find t key =
  match Lru.find t.lru key with
  | Some a -> Some (Hit_lru, a)
  | None -> (
    match t.disk with
    | None -> None
    | Some store -> (
      match Cache_store.find store key with
      | None -> None
      | Some j -> (
        match Solver.answer_of_json j with
        | Ok a ->
          Lru.put t.lru key a;  (* promote to the hot tier *)
          Some (Hit_disk, a)
        | Error _ -> None)))

let cache_fill t key answer =
  Lru.put t.lru key answer;
  match t.disk with
  | None -> ()
  | Some store -> (
    let chaos_fail = chaos_draw t (match t.cfg.chaos with Some c -> c.diskfail_rate | None -> 0.) in
    try Cache_store.put ~chaos_fail store ~key (Solver.answer_to_json answer)
    with Sys_error msg | Unix.Unix_error (_, msg, _) ->
      (* durability is best-effort per fill; the answer still goes out *)
      Atomic.incr t.c_write_failures;
      Metrics.incr m_write_failures;
      if Logx.would_log Logx.Warn then
        Logx.warn "serve.cache_write_failed" [ ("key", Logx.Str key); ("error", Logx.Str msg) ])

(* A request's entry reads no GC counters: they are process-wide, so a
   per-request delta would hold other requests' allocation, and reading
   them forces a collection. *)
let ledger_note t job ~wall_s =
  match t.cfg.ledger_file with
  | None -> ()
  | Some file ->
    let entry =
      {
        Ledger.timestamp_s = Unix.gettimeofday ();
        command = "serve.eval";
        argv = [ job.key ];
        seed = (match job.jreq.Solver.mode with Solver.Mc { seed; _ } -> Some seed | _ -> None);
        rev = Build_rev.rev;
        wall_seconds = wall_s;
        gc =
          { Ledger.minor_words = 0.; promoted_words = 0.; major_words = 0.;
            minor_collections = 0; major_collections = 0; compactions = 0 };
        metrics = Jsonx.Null;
      }
    in
    Mutex.protect t.ledger_mu (fun () ->
      try Ledger.append ~rotate_above:ledger_rotate_bytes ~file entry
      with Sys_error _ -> ())

(* -------------------------- exactly-once ---------------------------- *)

(* Per-terminal observation, shared by the inline and deferred paths.
   Runs on whichever domain won the terminal (Httpd, worker, watchdog, or
   the drain path): observes the per-outcome and total latency
   histograms, the budget-consumed ratio, emits a synthetic request span
   on the observer's trace track (so in Perfetto it lines up with that
   worker's solve span), and logs a structured record for requests
   slower than [slow_request_s].  Must run {e before} the responses
   counter is bumped — see the ordering note at the top of the file. *)
let observe_terminal t ~outcome ~budget_ms ~start_wall_s ~total_s phase_fields =
  Metrics.observe (h_outcome outcome) total_s;
  Metrics.observe h_total total_s;
  Metrics.observe h_budget_used (total_s /. (float_of_int budget_ms /. 1000.));
  Trace.emit ~name:(List.assq outcome outcome_spans) ~start_s:start_wall_s ~dur_s:total_s ();
  if total_s >= t.cfg.slow_request_s && Logx.would_log Logx.Warn then
    Logx.warn "serve.slow_request"
      ([ ("outcome", Logx.Str (outcome_label outcome));
         ("total_ms", Logx.Float (total_s *. 1000.));
         ("budget_ms", Logx.Int budget_ms) ]
      @ phase_fields)

(* The phase breakdown a slow-request record carries: whichever stamps
   the job accumulated before its terminal.  A job answered while still
   queued has only its wait; a solved one has wait + solve. *)
let job_phase_fields job ~now =
  let dequeue = Atomic.get job.t_dequeue_mono_s in
  let solve0 = Atomic.get job.t_solve_start_mono_s in
  let solve1 = Atomic.get job.t_solve_end_mono_s in
  let ms name v = (name, Logx.Float (v *. 1000.)) in
  [ ("id", Logx.Int job.id); ("key", Logx.Str job.key) ]
  @ (if dequeue > 0. then [ ms "queue_wait_ms" (dequeue -. job.t_admit_mono_s) ] else [])
  @
  if solve0 > 0. then
    [ ms "solve_ms" ((if solve1 >= solve0 then solve1 else now) -. solve0) ]
  else []

let respond_once t job ~outcome resp =
  if Atomic.compare_and_set job.responded false true then begin
    let now = Trace.now_mono_s () in
    let total_s = now -. job.t_admit_mono_s in
    observe_terminal t ~outcome ~budget_ms:job.budget_ms ~start_wall_s:job.t_admit_wall_s
      ~total_s
      (job_phase_fields job ~now);
    (* count before writing: a client that has seen its terminal response
       must find it already reflected in the stats.  A deadline expiry is
       counted here, by the branch that won the 504, and nowhere else. *)
    Atomic.incr t.c_deferred;
    Metrics.incr m_responses;
    if outcome = Timeout || outcome = Expired_queued then begin
      Atomic.incr t.c_deadline;
      Metrics.incr m_deadline
    end;
    Httpd.send_response job.client resp;
    true
  end
  else begin
    Atomic.incr t.c_suppressed;
    false
  end

(* ------------------------------ workers ----------------------------- *)

let run_job t job =
  let now = Trace.now_mono_s () in
  if now >= job.deadline_mono_s then begin
    (* expired while queued: terminal 504 without starting the solve *)
    ignore
      (respond_once t job ~outcome:Expired_queued
         (Httpd.json ~status:504
            (error_body "deadline"
               ~extra:
                 (("budget_ms", Jsonx.Num (float_of_int job.budget_ms))
                 :: ("stage", Jsonx.Str "queued")
                 :: progress_fields ~cells_done:0 ~cells_total:0))))
  end
  else begin
    (match t.cfg.chaos with
    | Some c when chaos_draw t c.slow_rate ->
      (try Unix.sleepf c.slow_s with Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | _ -> ());
    let solve0 = Trace.now_mono_s () in
    Atomic.set job.t_solve_start_mono_s solve0;
    (* observe the solve phase on every exit — success, deadline expiry,
       rejection — so the histogram counts solve attempts, not answers *)
    let solve_done () =
      let solve1 = Trace.now_mono_s () in
      Atomic.set job.t_solve_end_mono_s solve1;
      Metrics.observe h_solve (solve1 -. solve0)
    in
    match
      Trace.with_span "serve.solve" (fun () ->
        Solver.solve ~domains:t.cfg.solver_domains ~deadline_mono_s:job.deadline_mono_s job.jreq)
    with
    | answer ->
      solve_done ();
      let wall_s = Trace.now_mono_s () -. now in
      Atomic.incr t.c_solved;
      cache_fill t job.key answer;
      ignore
        (respond_once t job ~outcome:Cold
           (Httpd.json
              (answer_body ~cached:false ~source:"solver" ~key:job.key answer
                 ~extra:[ ("wall_ms", Jsonx.Num (wall_s *. 1000.)) ])));
      ledger_note t job ~wall_s
    | exception Engine.Cancelled { cells_done; cells_total } ->
      solve_done ();
      ignore
        (respond_once t job ~outcome:Timeout
           (Httpd.json ~status:504
              (error_body "deadline"
                 ~extra:
                   (("budget_ms", Jsonx.Num (float_of_int job.budget_ms))
                   :: ("stage", Jsonx.Str "solving")
                   :: progress_fields ~cells_done ~cells_total))))
    | exception Invalid_argument msg ->
      solve_done ();
      ignore (respond_once t job ~outcome:Failed (Httpd.json ~status:400 (error_body msg)))
  end

let rec worker_loop t w =
  if Atomic.get w.superseded then ()
  else
    match Workq.pop t.queue ~timeout_s:0.05 with
    | Workq.Drained -> ()
    | Workq.Empty -> worker_loop t w
    | Workq.Job job ->
      let dequeued = Trace.now_mono_s () in
      Atomic.set job.t_dequeue_mono_s dequeued;
      Metrics.observe h_queue_wait (dequeued -. job.t_admit_mono_s);
      Atomic.set w.current (Some job);
      (* chaos: the worker domain dies mid-job — the watchdog must answer
         for the orphan and respawn the pool *)
      (match t.cfg.chaos with
      | Some c when chaos_draw t c.panic_rate ->
        Atomic.incr t.c_panics;
        failwith "injected worker panic"
      | _ -> ());
      run_job t job;
      Atomic.set w.current None;
      worker_loop t w

let worker_main t w () =
  (try worker_loop t w
   with e ->
     if Logx.would_log Logx.Warn then
       Logx.warn "serve.worker_died"
         [ ("worker", Logx.Int w.wid); ("exn", Logx.Str (Printexc.to_string e)) ]);
  Atomic.set w.alive false

let spawn_worker t =
  let w =
    {
      wid = Atomic.fetch_and_add t.next_wid 1;
      alive = Atomic.make true;
      superseded = Atomic.make false;
      current = Atomic.make None;
    }
  in
  (w, Domain.spawn (worker_main t w))

(* ------------------------------ watchdog ---------------------------- *)

let orphan_response t job ~reason ~status =
  let outcome = if status = 504 then Timeout else Failed in
  ignore
    (respond_once t job ~outcome
       (Httpd.json ~status
          (error_body reason ~extra:[ ("budget_ms", Jsonx.Num (float_of_int job.budget_ms)) ])))

let supervise_once t =
  let now = Trace.now_mono_s () in
  Mutex.protect t.pool_mu (fun () ->
    let keep =
      List.filter_map
        (fun (w, d) ->
          if not (Atomic.get w.alive) then begin
            (* worker died (panic or solver bug): answer its orphan so the
               client is not left hanging, then recycle the slot *)
            (match Atomic.get w.current with
            | Some job ->
              Atomic.set w.current None;
              orphan_response t job ~reason:"worker_failure" ~status:500
            | None -> ());
            (try Domain.join d with _ -> ());
            None
          end
          else
            match Atomic.get w.current with
            | Some job when now > job.deadline_mono_s +. stuck_grace_s ->
              (* wedged in an un-cancellable pipeline well past its
                 deadline: answer 504 on its behalf, supersede it (it
                 exits silently when the solve returns) and re-staff *)
              orphan_response t job ~reason:"deadline" ~status:504;
              Atomic.set w.current None;
              Atomic.set w.superseded true;
              if Logx.would_log Logx.Warn then
                Logx.warn "serve.worker_superseded" [ ("worker", Logx.Int w.wid) ];
              None
            | _ -> Some (w, d))
        t.pool
    in
    let missing = t.cfg.workers - List.length keep in
    let fresh = List.init (max 0 missing) (fun _ -> spawn_worker t) in
    if missing > 0 then begin
      Atomic.fetch_and_add t.c_respawns missing |> ignore;
      Metrics.add m_respawns missing;
      if Logx.would_log Logx.Info then
        Logx.info "serve.worker_respawned" [ ("count", Logx.Int missing) ]
    end;
    t.pool <- keep @ fresh)

let watchdog_main t () =
  (* EWMA drain rate from deferred-terminal deltas, refreshed every ~10
     supervise ticks (~0.5 s); powers the Retry-After estimate *)
  let prev_count = ref (Atomic.get t.c_deferred) in
  let prev_t = ref (Trace.now_mono_s ()) in
  let ticks = ref 0 in
  while not (Atomic.get t.watchdog_stop) do
    (try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if not (Atomic.get t.watchdog_stop) then begin
      supervise_once t;
      Metrics.set g_queue_depth (float_of_int (Workq.depth t.queue));
      incr ticks;
      if !ticks mod 10 = 0 then begin
        let now = Trace.now_mono_s () in
        let count = Atomic.get t.c_deferred in
        let dt = now -. !prev_t in
        if dt > 0. then begin
          let inst = float_of_int (count - !prev_count) /. dt in
          let old = Atomic.get t.drain_rate in
          Atomic.set t.drain_rate (if old <= 0. then inst else (0.7 *. old) +. (0.3 *. inst))
        end;
        prev_count := count;
        prev_t := now
      end
    end
  done

(* ------------------------------- stats ------------------------------ *)

(* The shared body of /cache/stats and /stats: exact per-instance atomic
   counters plus cache/queue/pool state. *)
let stats_fields t =
  let i name a = (name, Jsonx.Num (float_of_int (Atomic.get a))) in
  let hits = Atomic.get t.c_hits_lru + Atomic.get t.c_hits_disk in
  let looked = hits + Atomic.get t.c_misses in
  let hit_rate = if looked = 0 then 0. else float_of_int hits /. float_of_int looked in
  let disk =
    match t.disk with
    | None -> Jsonx.Null
    | Some store ->
      let recovery =
        match t.recovery with
        | None -> Jsonx.Null
        | Some r ->
          Jsonx.Obj
            [ ("loaded", Jsonx.Num (float_of_int r.Cache_store.loaded));
              ("quarantined", Jsonx.Num (float_of_int r.Cache_store.quarantined));
              ("tmp_removed", Jsonx.Num (float_of_int r.Cache_store.tmp_removed)) ]
      in
      Jsonx.Obj
        [ ("dir", Jsonx.Str (Cache_store.dir store));
          ("entries", Jsonx.Num (float_of_int (Cache_store.entries store)));
          ("quarantined", Jsonx.Num (float_of_int (Cache_store.quarantined_total store)));
          ("recovery", recovery) ]
  in
  [ ("uptime_s", Jsonx.Num (Trace.now_mono_s () -. t.started_mono_s));
         ("draining", Jsonx.Bool (Atomic.get t.draining));
         i "requests" t.c_requests;
         i "accepted" t.c_accepted;
         i "shed" t.c_shed;
         ( "cache",
           Jsonx.Obj
             [ i "hits_lru" t.c_hits_lru; i "hits_disk" t.c_hits_disk; i "misses" t.c_misses;
               ("hit_rate", Jsonx.Num hit_rate);
               ( "lru",
                 Jsonx.Obj
                   [ ("size", Jsonx.Num (float_of_int (Lru.size t.lru)));
                     ("cap", Jsonx.Num (float_of_int (Lru.cap t.lru)));
                     ("evictions", Jsonx.Num (float_of_int (Lru.evictions t.lru))) ] );
               ("disk", disk) ] );
         ( "terminal",
           Jsonx.Obj
             [ i "inline" t.c_inline; i "deferred" t.c_deferred; i "suppressed" t.c_suppressed ] );
         i "deadline_expired" t.c_deadline;
         i "solved" t.c_solved;
         ( "queue",
           Jsonx.Obj
             [ ("depth", Jsonx.Num (float_of_int (Workq.depth t.queue)));
               ("watermark", Jsonx.Num (float_of_int (Workq.watermark t.queue))) ] );
         ( "workers",
           Jsonx.Obj
             [ ("pool", Jsonx.Num (float_of_int (Mutex.protect t.pool_mu (fun () -> List.length t.pool))));
               i "panics" t.c_panics; i "respawns" t.c_respawns ] );
         i "cache_write_failures" t.c_write_failures ]

let stats_json t =
  Jsonx.to_string (Jsonx.Obj (("schema", Jsonx.Str "ddm.cache.stats/v1") :: stats_fields t))

(* SLO summary of one histogram: count, sum, mean and interpolated
   quantiles from a single consistent copy of the bucket counts. *)
let histogram_summary ~bounds h =
  let counts = Metrics.histogram_counts h in
  let count = Array.fold_left ( + ) 0 counts in
  let sum = Metrics.histogram_sum h in
  let q p = Export.histogram_quantile ~bounds ~counts p in
  Jsonx.Obj
    [ ("count", Jsonx.Num (float_of_int count));
      ("sum", Jsonx.Num sum);
      ("mean", Jsonx.Num (if count = 0 then 0. else sum /. float_of_int count));
      ("p50", Jsonx.Num (q 0.5));
      ("p90", Jsonx.Num (q 0.9));
      ("p99", Jsonx.Num (q 0.99));
      ("p999", Jsonx.Num (q 0.999)) ]

let latency_json () =
  Jsonx.Obj
    [ ("metrics_enabled", Jsonx.Bool (Metrics.enabled ()));
      ("total", histogram_summary ~bounds:latency_buckets h_total);
      ( "phases",
        Jsonx.Obj
          [ ("queue_wait", histogram_summary ~bounds:latency_buckets h_queue_wait);
            ("solve", histogram_summary ~bounds:latency_buckets h_solve);
            ("cache_lookup", histogram_summary ~bounds:latency_buckets h_cache_lookup);
            ("budget_used", histogram_summary ~bounds:budget_used_buckets h_budget_used) ] );
      ( "outcomes",
        Jsonx.Obj
          (List.map
             (fun o -> (outcome_label o, histogram_summary ~bounds:latency_buckets (h_outcome o)))
             all_outcomes) ) ]

let serve_stats_json t =
  Jsonx.to_string
    (Jsonx.Obj
       ((("schema", Jsonx.Str "ddm.serve.stats/v1") :: stats_fields t)
       @ [ ("latency", latency_json ()) ]))

(* ----------------------------- admission ---------------------------- *)

(* Retry-After from the live backlog: estimated seconds to drain the
   current queue at the recent terminal-response rate (watchdog EWMA),
   clamped to [1, 60].  Before any completion has been observed the
   estimate assumes each queued job costs a full default budget spread
   across the pool. *)
let retry_after_headers t =
  let depth = Workq.depth t.queue in
  let rate = Atomic.get t.drain_rate in
  let est =
    if rate > 1e-9 then float_of_int (depth + 1) /. rate
    else
      float_of_int (depth + 1)
      *. (float_of_int t.cfg.default_budget_ms /. 1000.)
      /. float_of_int t.cfg.workers
  in
  let s = max 1 (min 60 (int_of_float (Float.ceil est))) in
  [ ("Retry-After", string_of_int s) ]

(* Inline terminal: observed with the same discipline as the deferred
   path (outcome first, then the responses counter), with admission
   entry as the start stamp. *)
let inline t ~outcome ~t0_mono ~t0_wall ~budget_ms resp =
  observe_terminal t ~outcome ~budget_ms ~start_wall_s:t0_wall
    ~total_s:(Trace.now_mono_s () -. t0_mono)
    [];
  Atomic.incr t.c_inline;
  Metrics.incr m_responses;
  Httpd.Respond resp

let handle_eval t (req : Httpd.request) =
  let t0_mono = Trace.now_mono_s () in
  let t0_wall = Trace.now_s () in
  let budget = t.cfg.default_budget_ms in
  Atomic.incr t.c_requests;
  Metrics.incr m_requests;
  if Atomic.get t.draining then
    inline t ~outcome:Failed ~t0_mono ~t0_wall ~budget_ms:budget
      (Httpd.json ~status:503 ~headers:(retry_after_headers t) (error_body "draining"))
  else
    match Solver.parse req.Httpd.req_body with
    | Error e ->
      inline t ~outcome:Failed ~t0_mono ~t0_wall ~budget_ms:budget
        (Httpd.json ~status:400 (error_body e))
    | Ok r -> (
      let key = Solver.cache_key r in
      let budget_ms = Option.value r.Solver.budget_ms ~default:t.cfg.default_budget_ms in
      let lookup0 = Trace.now_mono_s () in
      let found = cache_find t key in
      Metrics.observe h_cache_lookup (Trace.now_mono_s () -. lookup0);
      match found with
      | Some (outcome, answer) ->
        let hits, source =
          if outcome = Hit_lru then (t.c_hits_lru, "lru") else (t.c_hits_disk, "disk")
        in
        Atomic.incr hits;
        Metrics.incr m_hits;
        inline t ~outcome ~t0_mono ~t0_wall ~budget_ms
          (Httpd.json (answer_body ~cached:true ~source ~key answer))
      | None -> (
        Atomic.incr t.c_misses;
        Metrics.incr m_misses;
        let job =
          {
            id = Atomic.fetch_and_add t.next_id 1;
            jreq = r;
            key;
            client = req.Httpd.client;
            budget_ms;
            deadline_mono_s = Trace.now_mono_s () +. (float_of_int budget_ms /. 1000.);
            responded = Atomic.make false;
            t_admit_mono_s = t0_mono;
            t_admit_wall_s = t0_wall;
            t_dequeue_mono_s = Atomic.make 0.;
            t_solve_start_mono_s = Atomic.make 0.;
            t_solve_end_mono_s = Atomic.make 0.;
          }
        in
        match Workq.push t.queue job with
        | Workq.Accepted _depth ->
          Atomic.incr t.c_accepted;
          Httpd.Deferred
        | Workq.Shed ->
          Atomic.incr t.c_shed;
          Metrics.incr m_shed;
          inline t ~outcome:Shed ~t0_mono ~t0_wall ~budget_ms
            (Httpd.json ~status:429 ~headers:(retry_after_headers t)
               (error_body "overloaded"
                  ~extra:[ ("queue_depth", Jsonx.Num (float_of_int (Workq.depth t.queue))) ]))
        | Workq.Closed ->
          inline t ~outcome:Failed ~t0_mono ~t0_wall ~budget_ms
            (Httpd.json ~status:503 ~headers:(retry_after_headers t) (error_body "draining"))))

let handler t (req : Httpd.request) =
  match (req.Httpd.meth, req.Httpd.path) with
  | "POST", "/eval" -> handle_eval t req
  | ("GET" | "HEAD"), "/cache/stats" -> Httpd.Respond (Httpd.json (stats_json t))
  | ("GET" | "HEAD"), "/stats" -> Httpd.Respond (Httpd.json (serve_stats_json t))
  | _ -> Httpd.Pass

(* ---------------------------- lifecycle ----------------------------- *)

let validate cfg =
  if cfg.workers < 1 then invalid_arg "Serve.start: workers must be >= 1";
  if cfg.solver_domains < 1 then invalid_arg "Serve.start: solver_domains must be >= 1";
  if cfg.queue_depth < 1 then invalid_arg "Serve.start: queue_depth must be >= 1";
  if cfg.default_budget_ms < 1 then invalid_arg "Serve.start: default_budget_ms must be >= 1";
  if cfg.lru_cap < 1 then invalid_arg "Serve.start: lru_cap must be >= 1";
  if not (cfg.slow_request_s > 0.) then
    invalid_arg "Serve.start: slow_request_s must be positive"

let start cfg =
  validate cfg;
  let disk, recovery =
    match cfg.cache_dir with
    | None -> (None, None)
    | Some dir ->
      let store, report = Cache_store.open_store ~dir in
      if Logx.would_log Logx.Info then
        Logx.info "serve.cache_recovered"
          [ ("loaded", Logx.Int report.Cache_store.loaded);
            ("quarantined", Logx.Int report.Cache_store.quarantined);
            ("tmp_removed", Logx.Int report.Cache_store.tmp_removed) ];
      (Some store, Some report)
  in
  let t =
    {
      cfg;
      httpd = None;
      queue = Workq.create ~depth:cfg.queue_depth;
      lru = Lru.create ~cap:cfg.lru_cap;
      disk;
      recovery;
      chaos_mu = Mutex.create ();
      chaos_rng = Option.map (fun c -> Rng.create ~seed:c.seed) cfg.chaos;
      ledger_mu = Mutex.create ();
      draining = Atomic.make false;
      next_id = Atomic.make 0;
      next_wid = Atomic.make 0;
      pool_mu = Mutex.create ();
      pool = [];
      watchdog_stop = Atomic.make false;
      watchdog = None;
      started_mono_s = Trace.now_mono_s ();
      drain_rate = Atomic.make 0.;
      c_requests = Atomic.make 0;
      c_accepted = Atomic.make 0;
      c_shed = Atomic.make 0;
      c_hits_lru = Atomic.make 0;
      c_hits_disk = Atomic.make 0;
      c_misses = Atomic.make 0;
      c_inline = Atomic.make 0;
      c_deferred = Atomic.make 0;
      c_suppressed = Atomic.make 0;
      c_deadline = Atomic.make 0;
      c_solved = Atomic.make 0;
      c_panics = Atomic.make 0;
      c_respawns = Atomic.make 0;
      c_write_failures = Atomic.make 0;
    }
  in
  match
    Httpd.start ~host:cfg.host ?ledger_file:cfg.ledger_file ~handler:(handler t) ~port:cfg.port ()
  with
  | Error e -> Error e
  | Ok httpd ->
    t.httpd <- Some httpd;
    Mutex.protect t.pool_mu (fun () ->
      t.pool <- List.init cfg.workers (fun _ -> spawn_worker t));
    t.watchdog <- Some (Domain.spawn (watchdog_main t));
    if Logx.would_log Logx.Info then
      Logx.info "serve.started"
        [ ("port", Logx.Int (Httpd.port httpd)); ("workers", Logx.Int cfg.workers);
          ("queue_depth", Logx.Int cfg.queue_depth) ];
    Ok t

let port t = match t.httpd with Some h -> Httpd.port h | None -> 0

let stop ?(drain_deadline_s = default_drain_deadline_s) t =
  Atomic.set t.draining true;
  (* transport down first: nothing new arrives, deferred fds stay live *)
  (match t.httpd with Some h -> Httpd.stop h | None -> ());
  (* watchdog down before the workers exit, or it would re-staff them;
     its last supervise pass already ran *)
  Atomic.set t.watchdog_stop true;
  (match t.watchdog with
  | Some d ->
    (try Domain.join d with _ -> ());
    t.watchdog <- None
  | None -> ());
  Workq.close t.queue;
  let deadline = Trace.now_mono_s () +. drain_deadline_s in
  let pool = Mutex.protect t.pool_mu (fun () -> t.pool) in
  let rec wait () =
    if
      List.for_all (fun (w, _) -> not (Atomic.get w.alive)) pool
      || Trace.now_mono_s () >= deadline
    then ()
    else begin
      (try Unix.sleepf 0.02 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      wait ()
    end
  in
  wait ();
  (* drain deadline passed: fail every remaining accepted job explicitly
     — queued ones 503, in-flight ones 504 — never drop one silently *)
  List.iter
    (fun job ->
      ignore
        (respond_once t job ~outcome:Failed (Httpd.json ~status:503 (error_body "draining"))))
    (Workq.drain_remaining t.queue);
  List.iter
    (fun (w, _) ->
      if Atomic.get w.alive then begin
        Atomic.set w.superseded true;
        match Atomic.get w.current with
        | Some job ->
          Atomic.set w.current None;
          ignore
            (respond_once t job ~outcome:Timeout
               (Httpd.json ~status:504 (error_body "deadline" ~extra:[ ("stage", Jsonx.Str "drain") ])))
        | None -> ()
      end)
    pool;
  (* join what has exited; a superseded straggler wedged in a solve is
     left to die with the process rather than block shutdown *)
  List.iter (fun (w, d) -> if not (Atomic.get w.alive) then try Domain.join d with _ -> ()) pool;
  Mutex.protect t.pool_mu (fun () -> t.pool <- []);
  if Logx.would_log Logx.Info then
    Logx.info "serve.stopped"
      [ ("deferred_responses", Logx.Int (Atomic.get t.c_deferred));
        ("suppressed", Logx.Int (Atomic.get t.c_suppressed)) ]
