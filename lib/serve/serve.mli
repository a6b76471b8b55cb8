(** `ddm serve` — a crash-safe, deadline-aware evaluation service.

    Composes the serve subsystem on the {!Httpd} transport:

    - {b admission} (HTTP handler, server domain): parse, consult the
      two-tier cache ({!Lru} then {!Cache_store}) and answer hits
      inline; misses are stamped with a deadline and pushed onto the
      bounded {!Workq} — past the watermark they are {e shed} with 429
      + [Retry-After] instead of queueing without bound, and while
      draining admission answers 503;
    - {b workers}: a pool of solver domains popping the queue, solving
      under the request deadline ({!Solver.solve}; budget expiry
      surfaces as 504 carrying the sweep's partial progress), filling
      both cache tiers, and answering the deferred connection via
      {!Httpd.send_response} — {e exactly once} per accepted request,
      enforced by a per-job atomic compare-and-set (late or duplicate
      attempts are suppressed and counted, never sent);
    - {b watchdog}: a supervisor domain that answers 500 on behalf of a
      worker that died mid-job and 504 for one wedged past its
      deadline + grace, then respawns the pool to strength without
      touching the queue;
    - {b chaos} (optional, seeded): injected slow solves, worker
      panics, and disk-write faults, so the failure paths above are
      exercised deterministically in tests and soaks.

    Endpoints (on top of the observability routes {!Httpd} serves):
    [POST /eval] (body: {!Solver.parse} wire format),
    [GET /cache/stats] (counters + cache/queue/pool state,
    [ddm.cache.stats/v1]) and [GET /stats] ([ddm.serve.stats/v1], a
    superset of [/cache/stats] adding a [latency] section with
    count/sum/mean/p50/p90/p99/p999 per phase and per outcome).  Each
    [latency] leaf is interpolated from the live histogram bucket
    counts ({!Export.histogram_quantile}), and reads zero while the
    process-global metrics switch is off ([latency.metrics_enabled]
    says which).

    {b Request-latency telemetry}: every job is stamped at admission,
    dequeue, solve start/end and terminal; queue-wait, solve and
    cache-lookup phases land in log-spaced {!Metrics} histograms, and
    whichever domain wins the terminal CAS observes the request's
    total latency into exactly one per-outcome histogram
    ([ddm_serve_request_seconds_{hit_lru,hit_disk,cold,shed,expired_queued,timeout,error}])
    plus [ddm_serve_request_seconds] (all outcomes) and the
    deadline-budget-consumed ratio — so the per-outcome counts, the
    all-outcome count, the budget-ratio count and
    [ddm_serve_responses_total] all reconcile exactly at quiescence.
    Terminals also emit a [serve.request.<outcome>] trace span on the
    answering domain and a structured [serve.slow_request] log record
    (with the per-phase breakdown) for requests slower than
    [slow_request_s].  [Retry-After] on 429/503 is computed from the
    live queue depth and the watchdog's EWMA of the recent drain rate,
    clamped to [1, 60] seconds.

    {!stop} is the graceful drain: stop accepting, let workers finish
    everything already accepted up to a drain deadline, then fail any
    leftovers explicitly (503/504) — accepted requests always get a
    terminal response, even on the abandon path. *)

type chaos = {
  slow_rate : float;  (** fraction of jobs stalled before solving *)
  slow_s : float;  (** stall length *)
  panic_rate : float;  (** fraction of jobs whose worker dies mid-job *)
  diskfail_rate : float;  (** fraction of cache writes that tear and fail *)
  seed : int;  (** chaos PRNG seed — runs replay exactly *)
}

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; read back with {!port} *)
  workers : int;
  solver_domains : int;
      (** [-j] for each worker's solve, passed to {!Solver.solve}: > 1
          fans the lease-sharded paths (grid sweeps, threshold subset
          fold, mc kernel) over a domain pool nested under the worker, so
          total solve concurrency is up to [workers * solver_domains]
          domains.  Answers are bit-identical for every value, so the
          cache is unaffected.  Default 1: the leases run inline on the
          worker. *)
  queue_depth : int;  (** shed watermark *)
  default_budget_ms : int;  (** deadline for requests without [budget_ms] *)
  lru_cap : int;
  cache_dir : string option;  (** durable tier root; [None] = memory-only *)
  ledger_file : string option;
      (** per-request run ledger, rotated past 4 MiB: one [serve.eval]
          entry per cold solve, with the build's revision, an mc
          request's seed and an all-zero [gc] record (the GC's counts are
          process-wide, so a request has none of its own) *)
  slow_request_s : float;
      (** threshold for the structured [serve.slow_request] log record *)
  chaos : chaos option;
}
(** The watchdog supersedes a worker 0.5 s past its job's deadline, and
    the transport runs under {!Httpd.start}'s default limits: a 4 KiB
    request line, 16 KiB of headers, a 64 KiB body, a 5 s read deadline
    and a 2 s per-read timeout. *)

val default_config : config
(** Loopback, ephemeral port, 2 workers of 1 solver domain each, depth
    64, 5 s budget, 256-entry LRU, no durable tier, no ledger, 1 s
    slow-request threshold, no chaos. *)

type t

val start : config -> (t, string) result
(** Open the durable cache (running crash recovery), bind the HTTP
    transport, spawn the worker pool and watchdog.  [Error] on bind
    failure.
    @raise Invalid_argument on nonsensical config (no workers, empty
    queue, non-positive budget or slow-request threshold).
    @raise Sys_error / [Unix.Unix_error] when [cache_dir] is unusable. *)

val port : t -> int
val stop : ?drain_deadline_s:float -> t -> unit
(** Graceful drain as described above, within [drain_deadline_s]
    (default 5 s).  Idempotent-ish: a second call finds everything
    already down and returns quickly. *)

val stats_json : t -> string
(** The [GET /cache/stats] document ([ddm.cache.stats/v1]). *)

