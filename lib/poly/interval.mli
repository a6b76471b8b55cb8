(** Rational interval arithmetic.

    Closed intervals with exact rational endpoints; every operation returns
    an interval guaranteed to contain the exact result. Used to compare
    polynomial values at algebraic points with certainty (see {!Alg} and the
    certified maximization in {!Piecewise}). *)

type t = { lo : Rat.t; hi : Rat.t }

val make : Rat.t -> Rat.t -> t
(** @raise Invalid_argument when [lo > hi]. *)

val point : Rat.t -> t
val width : t -> Rat.t
val mid : t -> Rat.t
val mem : Rat.t -> t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val eval_poly : Poly.t -> t -> t
(** Horner evaluation in interval arithmetic: an enclosure of
    [{ p(x) : x in i }] (not necessarily tight, always sound). *)

val disjoint_lt : t -> t -> bool
(** [disjoint_lt a b]: certainly [x < y] for all [x in a], [y in b]. *)

val compare_certain : t -> t -> int option
(** [Some (-1)] / [Some 1] when the intervals are strictly ordered,
    [Some 0] when both are the same single point, [None] when they overlap. *)

val pp : Format.formatter -> t -> unit
