(** Piecewise polynomial functions on a rational interval.

    The symbolic winning-probability curves [β ↦ P_n(β)] produced by the
    paper's Theorem 5.1 are piecewise polynomials whose breakpoints are the
    points where an inclusion-exclusion indicator [jβ < δ] or
    [m − δ − j(1−β) > 0] switches; this module represents and optimizes such
    functions exactly. *)

type piece = { lo : Rat.t; hi : Rat.t; poly : Poly.t }

type t
(** Contiguous, sorted pieces covering a closed interval. *)

val make : piece list -> t
(** @raise Invalid_argument when pieces are empty, unsorted, overlapping or
    non-contiguous. *)

val pieces : t -> piece list
val domain : t -> Rat.t * Rat.t

val eval : t -> Rat.t -> Rat.t
(** @raise Invalid_argument outside the domain. At an interior breakpoint the
    right piece is used (continuity makes the choice immaterial). *)

val eval_float : t -> float -> float

val is_continuous : t -> bool
(** Checks that adjacent pieces agree exactly at shared breakpoints. *)

val map_polys : (Poly.t -> Poly.t) -> t -> t

type stationary = {
  location : Roots.enclosure;  (** where the derivative vanishes *)
  piece_poly : Poly.t;  (** the piece's polynomial *)
  condition : Poly.t;  (** the optimality condition: the derivative that vanishes *)
  value : Rat.t;  (** function value at the enclosure midpoint *)
}

type max_result = {
  argmax : Rat.t;  (** maximizer, within {!Roots.default_eps} of the true one *)
  value : Rat.t;  (** function value at [argmax] *)
  stationaries : stationary list;  (** all interior stationary points *)
}

val maximize : t -> max_result
(** Exact global maximization: candidates are the piece endpoints plus all
    interior roots of each piece's derivative (isolated by Sturm sequences
    and refined below {!Roots.default_eps}). Candidate values are compared
    at refined midpoints; for fully certified comparisons use
    {!maximize_certified}. *)

type certified_max = {
  arg : Alg.t;  (** the maximizer, as an exact algebraic number *)
  arg_piece : Poly.t;  (** the polynomial of the piece attaining the max *)
  value_enclosure : Interval.t;  (** certified enclosure of the maximum *)
}

val maximize_certified : t -> certified_max
(** Like {!maximize}, but candidates are ranked by certified interval
    comparisons (refining algebraic candidates as needed; exact ties are
    resolved in favour of the leftmost candidate). The returned value
    enclosure is refined below {!Roots.default_eps}. *)
