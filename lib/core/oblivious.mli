(** Oblivious algorithms (Section 4).

    An oblivious algorithm is a probability vector [α]: player [i] chooses
    bin 0 with probability [α_i], ignoring its input. Theorem 4.1 gives the
    winning probability as

    [P_A(δ) = Σ_b φ_δ(|b|) · Π_i P(y_i = b_i)]

    where [φ_δ(k) = F_IH(k, δ) · F_IH(n-k, δ)] and [F_IH(m, ·)] is the
    Irwin-Hall CDF of the sum of [m] iid [U[0,1]] inputs. Grouping the [2^n]
    decision vectors by their number of ones through the generating
    polynomial [Π_i (α_i + (1-α_i) z)] evaluates this in [O(n²)] arithmetic
    operations.  Written once over a {!Field.S}: the top level is the
    float instance, {!Q} the exact one; the two polynomials at the end are
    exact by construction. *)

module Make (F : Field.S) : sig
  val phi : n:int -> delta:F.t -> int -> F.t
  (** [φ_δ(k)] for [0 <= k <= n]; symmetric: [phi k = phi (n-k)] (Lemma 4.4). *)

  val winning_probability : delta:F.t -> F.t array -> F.t
  (** Theorem 4.1 for an arbitrary probability vector [α].
      @raise Invalid_argument unless every [α_i] is in [[0, 1]] ([nan]
      included). *)

  val winning_probability_caps : delta0:F.t -> delta1:F.t -> F.t array -> F.t
  (** Generalization to bins of unequal capacities. *)

  val winning_probability_uniform : n:int -> delta:F.t -> F.t
  (** Theorem 4.3: the winning probability of the optimal oblivious
      algorithm [α = (1/2, ..., 1/2)]. *)

  val optimality_residual : delta:F.t -> F.t array -> int -> F.t
  (** [∂P_A/∂α_k] (Corollary 4.2); vanishes at every interior optimum
      (exactly so over ℚ). *)

  val optimal_partition : n:int -> delta:F.t -> int * F.t
  (** The global (non-anonymous) oblivious optimum. [P_A] is {e
      multilinear} in [α], so its maximum over the cube [[0,1]^n] sits at
      a vertex — a deterministic partition — and vertices are equivalent
      up to their number of bin-1 players: the optimum is [max_k φ_δ(k)],
      returned as [(k_star, φ_δ(k_star))]. This is the anonymity caveat of
      DESIGN.md §7: when players may act asymmetrically, the best hard
      partition dominates the fair coin whenever [δ] is generous. *)
end

include module type of Make (Field.Float)
(** Float answers. *)

module Q : module type of Make (Field.Q)
(** Exact answers over ℚ. *)

val symmetric_poly : n:int -> delta:Rat.t -> Poly.t
(** The winning probability of the symmetric oblivious algorithm as an exact
    polynomial in the common probability [α]:
    [P(α) = Σ_k C(n,k) φ_δ(k) α^(n-k) (1-α)^k]. Its unique interior maximum
    is at [α = 1/2] (Theorem 4.3). *)

val rho_condition_poly : n:int -> delta:Rat.t -> Poly.t
(** The stationarity polynomial in [ρ = α/(1-α)] from the proof of
    Theorem 4.3: [Σ_{r=0}^{n-1} C(n-1,r) (φ(r+1) - φ(r)) ρ^r]. Theorem 4.3
    shows its coefficients are antisymmetric, so [ρ = 1] (i.e. [α = 1/2]) is
    always a root. *)
