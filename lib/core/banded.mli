(** Banded randomized symmetric rules — the smallest non-oblivious family
    that strictly contains both the paper's single thresholds and the fair
    coin.

    A banded rule chooses bin 0 with probability

    {v
      p(x) = 1   for x <= t1
             q   for t1 < x <= t2
             0   for x > t2
    v}

    [q = 1] (or [q = 0]) degenerates to a single threshold at [t2] (resp.
    [t1]); [t1 = 0, t2 = 1] degenerates to the oblivious coin with bias [q].

    Conditioned on a decision vector, each bin's inputs are iid {e mixtures}
    of two uniforms, so the winning probability reduces to a double binomial
    sum over mixture components whose inner terms are {!Uniform_sum.cdf}
    evaluations at shifted arguments — still exact. This is the evaluator
    behind experiment X3: at [(n=4, δ=4/3)] the optimal banded rule beats the
    fair coin even though the optimal deterministic threshold loses to it.
    It is written once over a {!Field.S}: the top level is the float
    instance, {!Q} the exact one. *)

type 'a band = { t1 : 'a; t2 : 'a; q : 'a }
(** A banded rule over a number type. *)

type rule = float band

module Make (F : Field.S) : sig
  val validate : F.t band -> unit
  (** @raise Invalid_argument unless [0 <= t1 <= t2 <= 1] and
      [0 <= q <= 1] ([nan] included). *)

  val winning_probability : n:int -> delta:F.t -> F.t band -> F.t
  (** Exact (up to the field's rounding), via the mixture decomposition. *)
end

include module type of Make (Field.Float)
(** Float answers. *)

module Q : module type of Make (Field.Q)
(** Exact answers over ℚ. *)

val of_threshold : float -> rule
val fair_coin : rule
val prob_bin0 : rule -> float -> float
(** The decision probability [p(x)]. *)

val to_rule : rule -> Model.rule
(** The banded rule as a {!Model.rule} for simulation with {!Mc_eval}. *)

val q_polynomial : n:int -> delta:Rat.t -> t1:Rat.t -> t2:Rat.t -> Poly.t
(** For a fixed band [(t1, t2)], the winning probability is a {e polynomial}
    of degree at most [n] in the randomization level [q]: expanding
    [π0^m a0^j (1-a0)^(m-j)] cancels the conditional normalizers, leaving
    monomials [q^(m-j) (1-q)^l] with constant coefficients. This builds it
    exactly over ℚ. *)

val optimal_q : n:int -> delta:Rat.t -> t1:Rat.t -> t2:Rat.t -> Alg.t * Rat.t
(** Certified optimal [q] in [[0,1]] for the band, with the winning
    probability at (an enclosure midpoint of) that [q]: Sturm isolation on
    [d/dq] of {!q_polynomial}. *)

val optimum : n:int -> delta:float -> unit -> rule * float
(** Multistart Nelder-Mead over [(t1, t2, q)] on the exact evaluator
    (starts: deterministic corners, the fair coin, and mixed profiles). *)
