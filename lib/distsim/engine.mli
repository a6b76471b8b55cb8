(** Execution engine for the distributed load-balancing game.

    Runs protocols over a {!Comm_pattern} either by Monte-Carlo simulation of
    actual distributed executions or by deterministic numeric integration
    over the input cube (midpoint rule), and provides a protocol-family
    optimizer used by the communication-trade-off experiment (X1).

    {!run_once}, {!win_probability_mc}, {!win_probability_given} and
    {!win_probability_grid} take an optional [?faults:Fault_model.t]
    (default: no faults) applied between the input draw and the
    decisions.  All fault
    randomness comes from the caller's seeded {!Rng}, and a fault
    dimension consumes draws only when its rate is nonzero — so under
    {!Fault_model.none} a play replays the fault-free play draw-for-draw,
    and any chaos run is reproducible from its seed.  Injection is
    instrumented under the [ddm_faults_*] metrics family: plays run with
    a fault model, per-dimension fault events, [ddm_faults_injected_total]
    across all dimensions, and degraded plays (at least one fault).

    Every exact and Monte-Carlo evaluator runs on the lease-sharded path
    ({!Par_fold.fold} / {!Par_fold.sample}) with [?domains] defaulting to
    1: a result depends on its inputs and lease count, never on the worker
    count (see docs/PARALLELISM.md).

    This is also the Monte-Carlo path of the paper's own game:
    {!Mc_eval.winning_probability} plays a {!Model.rule} as a protocol on
    the no-communication pattern through {!win_probability_mc}. *)

type outcome = {
  inputs : float array;  (** true inputs (noise perturbs views only) *)
  crashed : bool array;
      (** per-player crash flags; empty when the play ran without a crash
          rate *)
  decisions : int array;
      (** per-player bin; [-1] marks a crashed player whose input was
          dropped ({!Fault_model.Drop}) *)
  load0 : float;
  load1 : float;
  delta_eff : float;  (** the (possibly jittered) capacity this play was judged against *)
  win : bool;
  faults : int;  (** fault events injected in this play *)
}

val views : Comm_pattern.t -> float array -> Dist_protocol.view array
(** The per-player views induced by a pattern on a given input vector. *)

val backoff_delay :
  base_s:float -> ?factor:float -> ?max_s:float -> ?jitter:Rng.t -> int -> float
(** Exponential backoff with full jitter: the delay before retry [k]
    (0-based) is [min max_s (base_s * factor^k)] (default [factor] 2, no
    cap), scaled by a uniform draw in [0.5, 1) when [jitter] is given.  A
    seeded jitter source makes the schedule a deterministic function of
    the seed.
    @raise Invalid_argument on non-positive [base_s], [factor < 1], or a
    negative index. *)

val backoff_schedule :
  base_s:float -> ?factor:float -> ?max_s:float -> ?jitter:Rng.t -> attempts:int -> unit -> float list
(** The [attempts - 1] inter-attempt delays {!retry_under} would use —
    [backoff_delay] at indices [0 .. attempts-2].  Exposed so tests can
    pin the exact schedule for a given seed. *)

val retry_under :
  deadline_s:float ->
  ?attempts:int ->
  ?default:float ->
  ?backoff:float ->
  ?jitter:Rng.t ->
  Dist_protocol.t ->
  Dist_protocol.t
(** Deadline-bounded evaluation: re-invoke a decide rule that raised or
    returned a non-finite value, up to [attempts] (default 3) tries and a
    wall-clock budget of [deadline_s] seconds per decision, then give up
    and answer [default] (0.5). Fatal exceptions ([Out_of_memory],
    [Stack_overflow], [Assert_failure], [Sys.Break]) are re-raised rather
    than retried or converted into the fallback.

    [backoff] spaces the retries: the delay before retry [k] is
    [backoff_delay ~base_s:backoff ~max_s:deadline_s ?jitter k]
    (exponential, capped at the deadline, jittered by the seeded [jitter]
    source when given so schedules stay deterministic under test).  A
    delay that would overrun the deadline forfeits the retry instead of
    sleeping past it.  Without [backoff] retries are immediate (the
    historical behavior).

    Retries are counted in [ddm_faults_retries_total] and abandoned
    decisions in [ddm_faults_deadline_exceeded_total].
    @raise Invalid_argument on a non-positive deadline, attempt count, or
    backoff base. *)

val degrade_view : Rng.t -> Fault_model.t -> Dist_protocol.view -> Dist_protocol.view * int
(** Apply link loss, stale reads, and view noise to one player's view;
    returns the degraded view and the number of fault events injected.
    Exposed for tests. *)

val run_once :
  ?sampler:(Rng.t -> float) ->
  ?faults:Fault_model.t ->
  Rng.t ->
  delta:float ->
  Comm_pattern.t ->
  Dist_protocol.t ->
  outcome
(** One distributed play, and the only per-play closure in the
    repository: after the inputs (and any crash and capacity draws) each
    player is played in one pass — its view is built, it decides, and its
    input joins its bin's load.  [sampler] draws each player's private
    input (default [Rng.float01], the paper's U[0,1] model); supplying
    another sampler exercises the paper's Section 6 direction of "more
    realistic assumptions on the distribution of inputs".  [faults] injects crashes
    (drawn after the inputs), capacity jitter, and per-view link loss,
    stale reads and noise; passing it also counts the play in
    [ddm_faults_plays_total].
    @raise Invalid_argument when the protocol returns a non-finite decide
    output (see {!Dist_protocol.sanitized} to degrade instead). *)

val kernel_spec :
  ?faults:Fault_model.t -> delta:float -> Comm_pattern.t -> Dist_protocol.t -> Mc_kernel.t option
(** The batch-kernel spec of a question, when the kernel can play it:
    [Some] exactly when the protocol has a {!Dist_protocol.local_rule}
    and the pattern sends no message ([Comm_pattern.message_count = 0]),
    the paper's no-communication game.  [faults]' crash, noise and
    jitter translate one-to-one; link loss and stale reads have no
    revealed input to degrade there and are dropped.

    The spec keeps the counters {!run_once} keeps, added once per lease
    as it finishes: [ddm_engine_plays_total] and, with [faults] given,
    [ddm_faults_plays_total], crashes, values perturbed (every surviving
    player when noise is on, whatever the rule reads), jittered plays,
    [ddm_faults_injected_total] and degraded plays.  [ddm simulate] runs
    it directly.
    @raise Invalid_argument when the rule's parameter count disagrees
    with the pattern or a parameter is not finite. *)

val win_probability_mc :
  ?sampler:(Rng.t -> float) ->
  ?domains:int ->
  ?leases:int ->
  ?faults:Fault_model.t ->
  rng:Rng.t -> samples:int -> delta:float -> Comm_pattern.t -> Dist_protocol.t -> Mc.estimate
(** Monte-Carlo estimate of the win probability (under [faults] when
    given), with a Wilson 95% CI, on {!Mc.probability}'s lease-sharded
    path: [domains] (default 1) workers over [leases] split streams, so
    the estimate is bit-identical for every worker count at a fixed seed
    and fault counters stay exact (they are atomic).

    The sampler follows the question.  Without a custom [sampler], a
    question {!kernel_spec} accepts is played by the batch kernel
    ({!Mc_kernel}), several times faster; every other question (the
    communication patterns, view-reading protocols such as a
    {!Model.Custom} rule's, custom input distributions) by the per-play
    closure over {!run_once}.  Both keep
    the same [ddm_engine_*] / [ddm_faults_*] counts on the
    no-communication pattern, and their estimates agree statistically at
    the same seed, not byte-for-byte.
    @raise Invalid_argument on an invalid fault model. *)

val win_probability_given :
  ?domains:int ->
  ?leases:int ->
  ?faults:Fault_model.t ->
  delta:float ->
  Comm_pattern.t ->
  Dist_protocol.t ->
  float array ->
  float
(** Exact win probability conditioned on the input vector: enumerates the
    [2^n] decision vectors with their probabilities (single branch for
    deterministic protocols). Decision probabilities slightly outside
    [[0,1]] are clamped; a non-finite one raises [Invalid_argument] rather
    than silently poisoning grid integrals with NaN.

    With a crash rate [c > 0] in [faults] the crash model folds
    analytically: the sum runs over the [2^n] crash subsets (weighted
    [c^|S| (1-c)^(n-|S|)]), rerouting crashed inputs per the crash mode,
    and over the surviving players' decision branches.  The subsets are
    sharded by index range over [leases] leases on [domains] (default 1)
    workers ({!Par_fold.sum}), bit-identical for every worker count.  At
    crash rate 0 only the empty crash set is visited.
    @raise Invalid_argument unless {!Fault_model.crash_foldable} holds —
    only the crash dimension folds; estimate the rest by Monte-Carlo. *)

exception Cancelled of { cells_done : int; cells_total : int }
(** Raised out of a grid integration when its [cancel] hook fires,
    carrying how far the sweep got — the partial-progress metadata a
    deadline-bounded service reports with its 504. *)

val win_probability_grid :
  ?points:int ->
  ?cancel:(unit -> bool) ->
  ?domains:int ->
  ?leases:int ->
  ?faults:Fault_model.t ->
  delta:float -> Comm_pattern.t -> Dist_protocol.t -> float
(** Midpoint-rule integration of {!win_probability_given} over [[0,1]^n];
    default 64 points per dimension. Deterministic, so usable inside
    optimizers.  With a crash-foldable [faults] the integrand is the
    crash fold, each cell folding its crash sets in place.

    Cells are sharded by flat row-major index into [leases] (default
    {!Par_fold.default_leases}, capped at the cell count) contiguous
    ranges executed on a [domains]-worker pool (default 1), with
    per-lease partial sums merged in lease order: for fixed
    [(points, leases)] the result is bit-identical for every worker
    count.  Per-lease ["engine.grid.lease"] spans ride the tracing plane
    when the pool is spawned.  See docs/PARALLELISM.md.

    [cancel] is a cooperative cancellation hook consulted once per cell;
    when it returns [true] the sweep raises {!Cancelled} with its
    progress (this is how per-request deadlines reach into the exact
    pipeline — see lib/serve).  Every lease polls the same hook and the
    raise carries the merged progress of all leases.
    @raise Invalid_argument when [points^n] exceeds [10^8] or the fault
    model is not crash-foldable.
    @raise Cancelled when [cancel] fires mid-sweep. *)

val optimize_family :
  ?points:int ->
  ?domains:int ->
  ?leases:int ->
  delta:float ->
  Comm_pattern.t ->
  family:(float array -> Dist_protocol.t) ->
  x0:float array ->
  bounds:(float * float) array ->
  unit ->
  float array * float
(** Nelder-Mead (with bound clamping) over a parametric protocol family,
    scoring each candidate with {!win_probability_grid} (each scoring
    sweep runs on [domains] workers; the simplex itself is sequential).
    Returns the best parameters and their win probability. *)
