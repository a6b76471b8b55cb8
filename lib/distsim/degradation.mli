(** Graceful-degradation analysis: win-probability curves under a swept
    fault rate, against the fault-free baseline of the same protocol.

    This quantifies how the paper's optimal algorithms — the uniform
    oblivious rule (Theorem 4.3) and the common threshold
    [beta* ~ 0.6220] (Section 5.2) — hold up when the world the theorems
    assume starts failing. *)

type point = {
  rate : float;  (** the swept rate this point was run at *)
  faults : Fault_model.t;  (** the full model [model_of rate] *)
  estimate : Mc.estimate;  (** Monte-Carlo, Wilson 95% CI *)
  exact : float option;
      (** exact grid fold, present when the model is crash-foldable *)
}

type report = {
  protocol_name : string;
  pattern : string;
  delta : float;
  samples : int;
  grid_points : int;  (** grid resolution of the exact baseline and folds *)
  baseline_exact : float;  (** fault-free {!Engine.win_probability_grid} *)
  baseline_mc : Mc.estimate;  (** Monte-Carlo under {!Fault_model.none} *)
  baseline_agrees : bool;
      (** the zero-fault MC estimate matches the exact baseline — inside
          its Wilson CI, or within the grid's own [0.5/points] midpoint
          discretization allowance when the CI is tighter than that: a
          fault-model run reproduces the fault-free one *)
  points : point list;
}

val sweep :
  ?grid_points:int ->
  ?domains:int ->
  rng:Rng.t ->
  samples:int ->
  rates:float list ->
  model_of:(float -> Fault_model.t) ->
  delta:float ->
  Comm_pattern.t ->
  Dist_protocol.t ->
  report
(** Run the sweep. Each sweep point (and the baseline) draws from its own
    {!Rng.split}-off stream, so reports are reproducible per seed and
    stable under adding rates. [model_of] maps the swept rate to the full
    fault model (fix the other dimensions inside it).

    [?domains] (default 1) drives {e both} halves of every point: the MC
    estimate through {!Mc.probability}'s split-stream leases and the
    exact grid fold through {!Par_fold}'s index-sharded leases (each
    sweep point is an independent exact solve whose cells go wide).  The
    report is bit-identical for every worker count at a fixed seed.  Each
    MC half is an {!Engine.win_probability_mc} run, so the sampler
    follows the question: the batch kernel for a local rule on the
    no-communication pattern, the closure otherwise. *)

val monotone_nonincreasing : report -> bool
(** Does the win probability degrade monotonically along [points]?
    Exact values are compared up to float roundoff; MC values get two
    standard errors of slack per neighbour. *)

val drop_vs_baseline : report -> point -> float
(** Signed win-probability change of a sweep point vs the fault-free
    exact baseline (exact value when present, MC mean otherwise). *)

val to_table : report -> string
(** Aligned human-readable sweep table. *)

val to_csv : report -> string
(** Machine-readable sweep ([rate,mc_mean,ci_lo,ci_hi,exact,drop]). *)
