(** Non-oblivious single-threshold algorithms (Section 5).

    Player [i] chooses bin 0 iff [x_i <= a_i]. Conditioned on the decision
    vector [b], the bin-0 inputs are independent [U[0, a_i]] and the bin-1
    inputs independent [U[a_i, 1]], so Theorem 5.1 factors the winning
    probability through the laws of {!Uniform_sum}:

    [P_A(δ) = Σ_b P(y = b) · F_{Σ_0|b}(δ) · F_{Σ_1|b}(δ)].

    The general evaluator enumerates the [2^n] decision vectors and pays an
    inner inclusion-exclusion each — [O(3^n)] total — while the symmetric
    (common-threshold) evaluator collapses to [O(n²)] terms.  Both are
    written once over a {!Field.S}: the top level is the float instance,
    {!Q} the exact one. *)

module Make (F : Field.S) : sig
  val winning_probability : ?domains:int -> delta:F.t -> F.t array -> F.t
  (** Theorem 5.1 for an arbitrary threshold vector [a].

      The [2^n] decision vectors are sharded by index range over
      {!Par_fold.leases} leases (capped at [2^n]) run on [domains]
      workers (default 1) by {!Par_fold.fold}; partial sums merge in
      lease order, so the value is bit-identical for every worker count
      — this is the exact path behind [ddm eval -j].  For [n <= 6] every
      lease holds one vector and the value is the plain left-to-right
      sum.  The symmetric evaluators below stay sequential: they are
      [O(n²)] and not worth a domain spawn.
      @raise Invalid_argument unless every [a_i] is in [[0, 1]] ([nan]
      included). *)

  val winning_probability_caps :
    ?domains:int -> delta0:F.t -> delta1:F.t -> F.t array -> F.t
  (** Generalization to bins of unequal capacities [delta0] (bin 0) and
      [delta1] (bin 1) — the paper's framework supports this directly since
      the two conditional overflow events stay independent.  Same
      [domains] contract as {!winning_probability}. *)

  val winning_probability_sym : n:int -> delta:F.t -> F.t -> F.t
  (** [winning_probability_sym ~n ~delta β]: all players share the threshold
      [β]; [O(n²)] terms.  This is the function plotted in the paper's
      Figures 1-2.  @raise Invalid_argument unless [β] is in [[0, 1]]. *)

  val winning_probability_sym_caps : n:int -> delta0:F.t -> delta1:F.t -> F.t -> F.t
end

include module type of Make (Field.Float)
(** Float answers.  The inclusion-exclusion cancels once [n] grows (the
    symmetric collapse at [n = 60, δ = 20, β = 0.6] reads [1.2e-5]
    against an exact [0.6057]); {!Q} is the reference. *)

module Q : module type of Make (Field.Q)
(** Exact answers over ℚ. *)

val optimum_sym : ?points:int -> n:int -> delta:float -> unit -> float * float
(** Numeric optimal pair [(beta_star, p_star)] for the common threshold:
    coarse grid plus golden-section polish. The exact counterpart is
    {!Symbolic.optimal_sym_threshold}. *)

val optimality_residual_sym : n:int -> delta:float -> float -> float
(** Central-difference derivative of [β ↦ P(β)]; a numeric stand-in for the
    optimality conditions of Theorem 5.2 (their exact form is produced by
    {!Symbolic.sym_threshold_curve} piece derivatives). *)

val optimize_vector : n:int -> delta:float -> unit -> float array * float
(** Multistart coordinate ascent over {e arbitrary} threshold vectors using
    the exact Theorem 5.1 evaluator — probes whether asymmetric protocols
    beat the symmetric optimum (experiment X4: they do exactly when a hard
    partition of the players fits the capacity well, e.g. [(1,1,0,0)] at
    [n=4, δ=4/3]). The starts: the symmetric optimum, a balanced hard
    partition, and two mixed profiles. *)
