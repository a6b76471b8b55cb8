(** Real-root isolation and refinement for {!Poly} via Sturm sequences.

    All bounds are exact rationals, so root enclosures are certified: each
    returned interval contains exactly one real root of the (square-free part
    of the) polynomial. *)

type enclosure = { lo : Rat.t; hi : Rat.t }
(** A root enclosure; [lo = hi] denotes an exact rational root. *)

val squarefree : Poly.t -> Poly.t
(** [p / gcd (p, p')]: same real roots, all simple. *)

val sturm_chain : Poly.t -> Poly.t list
(** Sturm sequence of a square-free polynomial. *)

val count_roots : Poly.t -> lo:Rat.t -> hi:Rat.t -> int
(** Number of distinct real roots in the closed interval [[lo, hi]]. *)

val isolate : Poly.t -> lo:Rat.t -> hi:Rat.t -> enclosure list
(** Disjoint enclosures, one per distinct real root in [[lo, hi]], in
    increasing order. *)

val refine : Poly.t -> enclosure -> eps:Rat.t -> enclosure
(** Shrinks an enclosure produced by {!isolate} below width [eps] by sign
    bisection. The probes are the midpoints a bisection in {!Rat} would
    take, tested as integer signs with {!Poly.sign_at}; only the returned
    endpoints are normalised. *)

val refine_squarefree : Poly.t -> enclosure -> eps:Rat.t -> enclosure
(** {!refine} for a polynomial that is already square-free, such as one
    returned by {!squarefree}: the same enclosure without recomputing the
    square-free part. *)

val default_eps : Rat.t
(** [10^-30]: the width of {!roots_in}'s enclosures, and the precision
    of the exact optima ({!Piecewise.maximize},
    {!Piecewise.maximize_certified}). *)

val roots_in : Poly.t -> lo:Rat.t -> hi:Rat.t -> enclosure list
(** [isolate] followed by [refine] below {!default_eps}, computing the
    square-free part once. *)

val root_floats : Poly.t -> lo:Rat.t -> hi:Rat.t -> float list
(** Double-precision approximations of all distinct real roots in the
    interval. *)
