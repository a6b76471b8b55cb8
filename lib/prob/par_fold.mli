(** Lease-sharded deterministic parallelism: one domain pool under every
    parallel path, with two entry points.

    {!fold} shards a pure fold over the index range [0 .. items-1]: the
    range is partitioned into a fixed number of {e leases} (contiguous,
    in index order), worker domains steal whole leases from an atomic
    cursor, each lease folds its own range sequentially, and the main
    domain merges the per-lease accumulators {e in lease order}.  Which
    worker ran which lease therefore cannot affect the result: for a
    fixed [items], [domains:1] and [domains:8] produce bit-identical
    values — including for floating-point accumulators, because the
    summation order is a function of the lease partition alone.

    {!sample} is the Monte-Carlo form: the same partition shares a
    sample budget out over the leases, and each lease draws from its own
    stream split off the root generator.  A Monte-Carlo estimate is then
    a function of [(seed, samples)], never of [domains].
    {!Mc.probability}, {!Mc.expectation} and
    {!Mc_kernel.run} all sample through it.

    Exceptions raised by a lease (including cooperative-cancellation
    raises such as [Engine.Cancelled]) park the pool — no new lease
    starts, in-flight leases run to their own completion or raise — and
    propagate to the caller after every worker domain has been joined.

    Observability: a lease may bump {!Metrics} counters (they are
    atomic).  When tracing is enabled and the leases run on a spawned
    pool ([domains > 1]), each lease is recorded as a span (default name
    ["par.lease"]; callers pass [?span] to label their workload) in its
    worker's domain-local buffer, folded into the main domain's profile
    on join ({!Trace.drain}/{!Trace.absorb}).  An inline run
    ([domains = 1]) records no lease spans: it already sits under its
    caller's span, and a span per lease would cost more than a small
    fold's work.  See docs/PARALLELISM.md for the full contract. *)

val leases : int
(** 64, the lease count of {!fold} and {!sample} — comfortably more
    leases than any realistic worker count, so the pool load-balances
    even when per-index or per-sample cost is uneven.  It is a constant:
    every answer depends on [(seed, work)] alone. *)

val run_leases : ?span:string -> domains:int -> leases:int -> (int -> 'a) -> 'a array
(** [run_leases ~domains ~leases run] executes the [leases] independent
    jobs [run 0 .. run (leases-1)] on a pool of [domains] worker domains
    (the calling domain is one of them, so [domains:1] spawns nothing)
    and returns their results in lease order.  This is the shared
    domain-pool core under {!fold} and {!sample}; use it directly when
    per-lease work is neither an indexed fold nor a sample share.  [run]
    and the closures it captures must be safe to call from another
    domain.
    @raise Invalid_argument when [domains < 1] or [leases < 0].
    @raise e re-raises the first exception any lease raised (main
    domain's first), after all workers are joined. *)

val fold :
  ?span:string ->
  domains:int ->
  items:int ->
  init:(unit -> 'a) ->
  step:('a -> int -> 'a) ->
  merge:('a -> 'a -> 'a) ->
  unit ->
  'a
(** [fold ~domains ~items ~init ~step ~merge ()] computes
    [step (... (step (init ()) i_0) ...) i_k] over each lease's
    contiguous index share and merges the per-lease accumulators in
    lease order starting from a fresh [init ()].  [merge] must be
    associative with [init ()] as identity; [step] must be pure up to
    atomic-counter bumps and safe to run on another domain.  The fold
    runs [min leases items] leases: a lease past the last item would
    only merge an [init ()], the identity, so the cap changes no result
    and spares small folds the empty slots.
    @raise Invalid_argument when [domains < 1] or [items < 0]. *)

val fold_ranges :
  ?span:string ->
  domains:int ->
  items:int ->
  init:(unit -> 'a) ->
  range:('a -> lo:int -> hi:int -> 'a) ->
  merge:('a -> 'a -> 'a) ->
  unit ->
  'a
(** {!fold} with the lease loop handed to the caller: [range acc ~lo ~hi]
    folds the lease's whole contiguous share [[lo, hi)] into [acc], so a
    lease can carry state from one index to the next (the grid
    integrators walk their cells odometer-style instead of decoding each
    flat index).  [fold ~step] is [fold_ranges] with a [for] loop over
    [step]; the partition, merge order and validation are identical. *)

val sum : ?span:string -> domains:int -> items:int -> (int -> float) -> float
(** [sum ~domains ~items f] is [f 0 +. ... +. f (items-1)] with
    per-lease partial sums merged in lease order — the worker-count-
    invariant building block under the parallel grid integrators and the
    2^n subset folds. *)

val sample :
  ?span:string ->
  domains:int ->
  rng:Rng.t ->
  samples:int ->
  (Rng.t -> int -> 'a) ->
  'a array
(** [sample ~domains ~rng ~samples run] splits {!leases} streams off
    [rng], in lease order, before any
    lease runs, then calls [run stream share] for each lease on a pool of
    [domains] workers and returns the results in lease order.  Lease [i]
    gets the [i]-th stream and the [i]-th share of [samples] in
    {!fold_ranges}' partition: shares differ by at most one and sum to
    [samples].  Unlike {!fold}, the lease count is never capped: [rng]
    advances by exactly [leases] splits, and a lease past the last sample
    runs with share 0.  [run] must be safe to call from another domain.
    @raise Invalid_argument when [domains < 1] or [samples < 0]. *)
