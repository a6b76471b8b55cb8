(** Exact symbolic form of the symmetric winning-probability curve
    [β ↦ P_n(β)] (Section 5.2).

    Restricted to an interval where no inclusion-exclusion indicator
    switches, Theorem 5.1's sum is a polynomial in the common threshold [β]
    with rational coefficients. The indicators switch exactly at
    [β = δ/j] (bin-0 terms) and [β = 1 - (k-δ)/j] (bin-1 terms), so the full
    curve is a piecewise polynomial with those breakpoints. This module
    builds it exactly and extracts certified optima — this is how the
    paper's §5.2.1 ([n=3, δ=1]) and §5.2.2 ([n=4, δ=4/3]) closed forms,
    optimality conditions and optimal thresholds are reproduced. *)

val breakpoints : n:int -> delta:Rat.t -> Rat.t list
(** The sorted breakpoints of [P_n] inside [(0,1)], with [0] and [1]
    prepended/appended. *)

val sym_threshold_curve : n:int -> delta:Rat.t -> Piecewise.t
(** The exact piecewise polynomial equal to
    [Threshold.Q.winning_probability_sym] on [[0,1]]. Guaranteed
    continuous; each piece has degree at most [n]. *)

val optimal_sym_threshold : n:int -> delta:Rat.t -> unit -> Piecewise.max_result
(** Certified global optimum of the symmetric threshold algorithm. The
    [stationaries] field exposes each piece's vanishing derivative — the
    paper's optimality conditions (e.g. [β² - 2β + 6/7 = 0] for
    [n=3, δ=1]). *)

val optimal_sym_threshold_certified : n:int -> delta:Rat.t -> unit -> Piecewise.certified_max
(** Fully certified variant: the optimal threshold is returned as an exact
    algebraic number ({!Alg.t}) and the optimal winning probability as a
    rational interval enclosure; all candidate comparisons are performed in
    interval arithmetic with refinement, never in floating point. *)

val monic_condition : Poly.t -> Poly.t
(** Normalizes an optimality condition to a monic polynomial for display and
    comparison against the paper's printed equations. *)

val sym_threshold_curve_caps : n:int -> delta0:Rat.t -> delta1:Rat.t -> Piecewise.t
(** Exact curve for bins of unequal capacities [delta0] (bin 0, the
    "below-threshold" bin) and [delta1] (bin 1). *)

val optimality_conditions : n:int -> delta:Rat.t -> (Rat.t * Rat.t * Poly.t) list
(** The optimality conditions of Theorem 5.2 in explicit form: for each
    breakpoint interval [(lo, hi)], the polynomial whose vanishing
    characterizes interior stationary thresholds on that interval (the
    derivative of the exact piece). *)
