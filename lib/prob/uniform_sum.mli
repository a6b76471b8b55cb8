(** Distribution of sums of independent uniform random variables
    (the paper's Section 2.2), written once over a {!Field.S}.

    - [cdf]: Lemma 2.4 — CDF of [Σ x_i], [x_i ~ U[0, π_i]];
    - [pdf]: Lemma 2.5 — the density (this formula answers a research
      problem of Rota);
    - [cdf_shifted]: Lemma 2.7 — CDF of [Σ x_i], [x_i ~ U[π_i, 1]];
    - [cdf_equal*], [irwin_hall*]: the equal-width and Corollary 2.6
      specializations, computed in [O(m)] terms instead of [O(2^m)].

    The top level is the float instance; {!Q} is the exact one.  Zero-width
    variables (e.g. [π_i = 0], or [π_i = 1] in the shifted case) are
    treated as the point masses they are.  CDFs are clamped into [[0, 1]]
    and densities floored at [0]: a no-op over ℚ, a guard against
    cancellation in float. *)

module Make (F : Field.S) : sig
  (** {1 General widths (inclusion-exclusion over subsets, cost O(2^m))} *)

  val cdf : widths:F.t array -> F.t -> F.t
  (** [cdf ~widths t = P(Σ x_i <= t)] with [x_i ~ U[0, widths_i]].
      @raise Invalid_argument unless every [widths_i >= 0]. *)

  val pdf : widths:F.t array -> F.t -> F.t
  (** Density of [Σ x_i] at [t].
      @raise Invalid_argument unless every [widths_i >= 0] and at least one
      is positive. *)

  val cdf_shifted : lowers:F.t array -> F.t -> F.t
  (** [cdf_shifted ~lowers t = P(Σ x_i <= t)] with [x_i ~ U[lowers_i, 1]].
      @raise Invalid_argument unless every [lowers_i] is in [[0, 1]]. *)

  (** {1 Equal widths (cost O(m))} *)

  val cdf_equal : m:int -> width:F.t -> F.t -> F.t
  (** CDF of the sum of [m] iid [U[0, width]] variables.
      @raise Invalid_argument when [m < 0] or [width < 0]. *)

  val cdf_equal_shifted : m:int -> lower:F.t -> F.t -> F.t
  (** CDF of the sum of [m] iid [U[lower, 1]] variables.
      @raise Invalid_argument when [m < 0] or [lower] is outside [[0, 1]]. *)

  (** {1 Irwin-Hall (Corollary 2.6)} *)

  val irwin_hall_cdf : m:int -> F.t -> F.t
  (** CDF of the sum of [m] iid [U[0,1]] variables at [t]. *)

  val irwin_hall_pdf : m:int -> F.t -> F.t
  (** Its density; [m >= 1]. *)
end

include module type of Make (Field.Float)
(** Float answers.  In float the inclusion-exclusion cancels
    catastrophically once [m] grows (e.g. [irwin_hall_cdf ~m:50] at
    [t = 100/3] is off by 0.34); {!Q} is the reference. *)

module Q : module type of Make (Field.Q)
(** Exact answers over ℚ. *)
