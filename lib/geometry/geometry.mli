(** Polytopes of the paper's Section 2.1: orthogonal simplices
    [Σ^m(σ) = { x ≥ 0 : Σ x_l/σ_l ≤ 1 }], orthogonal boxes
    [Π^m(π) = Π [0, π_l]], and their intersection [ΣΠ^m(σ, π)], whose
    volume is given by the inclusion-exclusion formula of Proposition 2.2.
    The volumes are written once over a {!Field.S}: the top level is the
    float instance, {!Q} the exact one. *)

module Make (F : Field.S) : sig
  (** {1 Volumes (Lemma 2.1 and Proposition 2.2)} *)

  val simplex_volume : F.t array -> F.t
  (** [simplex_volume σ = (Π σ_l) / m!]. All sides must be positive. *)

  val box_volume : F.t array -> F.t
  (** [box_volume π = Π π_l]. All sides must be positive. *)

  val sigma_pi_volume : sigma:F.t array -> pi:F.t array -> F.t
  (** Volume of [Σ^m(σ) ∩ Π^m(π)] by Proposition 2.2:
      [(Πσ_l/m!) · Σ_I (-1)^{|I|} (1 - Σ_{l∈I} π_l/σ_l)^m] over subsets [I]
      with [Σ_{l∈I} π_l/σ_l < 1]. Cost [O(2^m)].
      @raise Invalid_argument on dimension mismatch or non-positive sides. *)
end

include module type of Make (Field.Float)
(** Float volumes. *)

module Q : module type of Make (Field.Q)
(** Exact volumes over ℚ. *)

(** {1 Membership} *)

val mem_simplex : sigma:float array -> float array -> bool
val mem_box : pi:float array -> float array -> bool
val mem_sigma_pi : sigma:float array -> pi:float array -> float array -> bool

(** {1 General H-polytopes} *)

type halfspace = { normal : float array; offset : float }
(** The halfspace [normal · x <= offset]. *)

val mem_halfspaces : halfspace list -> float array -> bool

val halfspaces_of_sigma_pi : sigma:float array -> pi:float array -> halfspace list
(** The H-representation of [ΣΠ^m(σ, π)] (simplex face, box faces and
    non-negativity). *)

(** {1 Monte-Carlo volume}

    Hit-or-miss estimation inside the bounding box [Π [0, π_l]]; used as an
    independent cross-check of Proposition 2.2 (experiment P1). The sampler
    argument must return uniform draws in [0, 1). *)

val mc_volume :
  rand:(unit -> float) -> samples:int -> box:float array -> (float array -> bool) -> float
