(** Batch Monte-Carlo kernel for the 2-bin load game.

    The scalar harness ({!Mc}) estimates by calling a closure
    once per play; this module replaces that inner loop for the game the
    paper studies — [n] players with uniform inputs each pick one of two
    bins, and the play wins when both bin loads stay within the capacity
    [delta].  Draws are produced chunk-wise into structure-of-arrays
    [Bigarray] buffers by the alloc-free {!Rng.fill_float01} stream, bin
    assignment runs straight over the buffers, and win counts, overflow
    counts, crash tallies, a Welford accumulator over the max bin load and
    an optional histogram are fused into a single pass.  On the
    repository's perf workloads this is a multiple-times single-core
    speedup over the closure path (see docs/KERNEL.md and EXPERIMENTS.md
    X14).

    {b Determinism.} A kernel estimate is a pure function of
    [(seed, samples, spec)].  {!run} samples through
    {!Par_fold.sample}, the closure path's split-stream discipline, and
    merges per-lease results in lease order, so the result is bit-identical for every worker
    count [>= 1].  The kernel consumes randomness in a different
    order than the scalar path, so kernel estimates agree with scalar
    estimates {e statistically} (pinned through {!Mc.agrees} in tests),
    not byte-for-byte. *)

type rule =
  | Threshold of float array
      (** [Threshold tau]: player [i] picks bin 0 iff its input
          [x <= tau.(i)] — the rule of
          [Dist_protocol.single_threshold] and
          {!Model.Single_threshold}. *)
  | Oblivious of float array
      (** [Oblivious alpha]: player [i] picks bin 0 with probability
          [alpha.(i)], ignoring its input — the rule of
          [Dist_protocol.oblivious] and {!Model.Oblivious} (values
          outside [[0,1]] behave as the scalar path: clamped in
          effect). *)

type result = {
  samples : int;
  wins : int;  (** plays with both loads within the (jittered) capacity *)
  over0 : int;  (** plays where bin 0 overflowed *)
  over1 : int;  (** plays where bin 1 overflowed *)
  crashes : int;  (** crashed players, summed over plays; 0 without a crash rate *)
  crash_plays : int;  (** plays with at least one crashed player *)
  loads : Stats.acc;
      (** Welford over the max bin load per play; [Stats.empty] unless the
          run asked for [~loads:true] *)
  hist : Stats.histogram option;
      (** max-bin-load histogram, present iff the run passed [?hist] *)
}

type t

val make :
  ?faults:Fault_model.t -> ?on_lease:(result -> unit) -> n:int -> delta:float -> rule -> t
(** Validated play specification.  [faults] (default: none) plays three
    of the model's dimensions: each player crashes independently with
    probability [crash], and its raw input then lands as [crash_mode]
    says ([Drop]: neither bin; [Default_bin b]: bin [b]); [noise]
    perturbs the value a rule {e reads} by [U(-noise, noise)] clamped to
    [[0,1]] while loads keep the raw input; [jitter] judges each play
    against [delta * (1 + U(-jitter, jitter))].  Link loss and stale
    reads have no kernel dimension: the kernel's rules are local, they
    never read another player's value, so link faults cannot change an
    outcome.  A model whose crash, noise and jitter are all 0 runs the
    plain (fault-free) loops.

    [on_lease] (default: nothing) receives each lease's own result as the
    lease finishes, on the worker domain that played it, so it must be
    safe to call from any domain.  It is how a caller keeps its own
    telemetry from a kernel run: the tallies come from draws the pass
    already makes, the hot loop stays free of shared state, and the
    counts rise while a long run is still going.
    @raise Invalid_argument when [n < 1], [delta <= 0], the rule's
    parameter array is not of length [n], or [faults] fails
    {!Fault_model.validate}. *)

val run :
  ?hist:int * float * float ->
  ?loads:bool ->
  ?domains:int ->
  rng:Rng.t ->
  samples:int ->
  t ->
  result
(** Lease-sharded batch run through {!Par_fold.sample} on a pool of
    [domains] (default 1) workers: [rng] is advanced by exactly
    {!Par_fold.leases} splits, lease [i] plays its share
    of [samples] from a fill stream derived from its own split, and
    per-lease results merge in lease order ({!Stats.merge} /
    [histogram_merge]) — bit-identical for every [domains >= 1] at fixed
    [(seed, samples)], the same contract as the closure path.
    [?hist:(bins, lo, hi)] requests the fused histogram; [~loads:true]
    (default false) requests the Welford accumulator — both are fused
    into the same pass, costing only their own arithmetic.  Chunk buffers
    are allocated once per worker for the call and dropped with it.
    @raise Invalid_argument ({!Par_fold.sample}'s) when [domains < 1]
    or [samples < 0]. *)
