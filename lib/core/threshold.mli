(** Non-oblivious single-threshold algorithms (Section 5).

    Player [i] chooses bin 0 iff [x_i <= a_i]. Conditioned on the decision
    vector [b], the bin-0 inputs are independent [U[0, a_i]] and the bin-1
    inputs independent [U[a_i, 1]], so Theorem 5.1 factors the winning
    probability through the laws of {!Uniform_sum}:

    [P_A(δ) = Σ_b P(y = b) · F_{Σ_0|b}(δ) · F_{Σ_1|b}(δ)].

    The general evaluator enumerates the [2^n] decision vectors and pays an
    inner inclusion-exclusion each — [O(3^n)] total — while the symmetric
    (common-threshold) evaluator collapses to [O(n²)] terms. *)

val winning_probability : ?domains:int -> ?leases:int -> delta:float -> float array -> float
(** Theorem 5.1 for an arbitrary threshold vector [a], [0 <= a_i <= 1].

    The [2^n] decision vectors are sharded by index range over [leases]
    leases (default {!Par_fold.default_leases}, capped at [2^n]) run on
    [domains] workers (default 1) by {!Par_fold.sum}; partial sums merge
    in lease order, so the value is bit-identical for every worker count
    at fixed [leases] — this is the exact path behind [ddm eval -j].  For
    [n <= 6] every lease holds one vector and the value is the plain
    left-to-right sum.  The symmetric evaluators below stay sequential:
    they are [O(n²)] and not worth a domain spawn. *)

val winning_probability_caps :
  ?domains:int -> ?leases:int -> delta0:float -> delta1:float -> float array -> float
(** Generalization to bins of unequal capacities [delta0] (bin 0) and
    [delta1] (bin 1) — the paper's framework supports this directly since
    the two conditional overflow events stay independent.  Same
    [domains]/[leases] contract as {!winning_probability}. *)

val winning_probability_sym_caps : n:int -> delta0:float -> delta1:float -> float -> float

val winning_probability_rat : delta:Rat.t -> Rat.t array -> Rat.t

val winning_probability_sym : n:int -> delta:float -> float -> float
(** [winning_probability_sym ~n ~delta β]: all players share the threshold
    [β]. This is the function plotted in the paper's Figures 1-2. *)

val winning_probability_sym_rat : n:int -> delta:Rat.t -> Rat.t -> Rat.t

val winning_probability_sym_rat_caps :
  n:int -> delta0:Rat.t -> delta1:Rat.t -> Rat.t -> Rat.t

val optimum_sym : ?points:int -> n:int -> delta:float -> unit -> float * float
(** Numeric optimal pair [(beta_star, p_star)] for the common threshold:
    coarse grid plus golden-section polish. The exact counterpart is
    {!Symbolic.optimal_sym_threshold}. *)

val optimality_residual_sym : n:int -> delta:float -> float -> float
(** Central-difference derivative of [β ↦ P(β)]; a numeric stand-in for the
    optimality conditions of Theorem 5.2 (their exact form is produced by
    {!Symbolic.sym_threshold_curve} piece derivatives). *)

val optimize_vector :
  ?starts:float array list -> n:int -> delta:float -> unit -> float array * float
(** Multistart coordinate ascent over {e arbitrary} threshold vectors using
    the exact Theorem 5.1 evaluator — probes whether asymmetric protocols
    beat the symmetric optimum (experiment X4: they do exactly when a hard
    partition of the players fits the capacity well, e.g. [(1,1,0,0)] at
    [n=4, δ=4/3]). Default starts: the symmetric optimum, a balanced hard
    partition, and two mixed profiles. *)
