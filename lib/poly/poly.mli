(** Dense univariate polynomials over the rationals.

    Coefficients are stored little-endian ([coeff p 0] is the constant term)
    with no trailing zeros; the zero polynomial has an empty coefficient
    array and degree [-1]. *)

type t

(** {1 Construction} *)

val zero : t
val one : t
val x : t

val constant : Rat.t -> t
val monomial : Rat.t -> int -> t
(** [monomial c k] is [c * x^k]. *)

val of_list : Rat.t list -> t
(** Coefficients from the constant term up. *)

val of_int_list : int list -> t
val of_string_list : string list -> t
(** Convenience: coefficients as {!Rat.of_string} inputs, e.g.
    [of_string_list ["1/6"; "0"; "3/2"; "-1/2"]]. *)

val linear : Rat.t -> Rat.t -> t
(** [linear a b] is [a + b*x]. *)

(** {1 Observation} *)

val degree : t -> int
(** [-1] for the zero polynomial. *)

val coeff : t -> int -> Rat.t
(** Zero outside the stored range. *)

val coeffs : t -> Rat.t array
val leading : t -> Rat.t
val is_zero : t -> bool
val equal : t -> t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : Rat.t -> t -> t
val pow : t -> int -> t

val divmod : t -> t -> t * t
(** Euclidean division. @raise Division_by_zero on zero divisor. *)

val gcd : t -> t -> t
(** Monic gcd (or zero). *)

val derivative : t -> t
val antiderivative : t -> t
(** Antiderivative with zero constant term. *)

val compose : t -> t -> t
(** [compose p q] is [p(q(x))]. *)

val compose_linear : t -> Rat.t -> Rat.t -> t
(** [compose_linear p a b = p (a + b*x)], computed by Horner; cheaper than
    general composition. *)

(** {1 Evaluation} *)

val eval : t -> Rat.t -> Rat.t
(** Horner's rule on integer numerators, normalised once at the end. *)

val sign_at : t -> Bigint.t -> Bigint.t -> int
(** [sign_at p n d] is the sign of [p (n/d)] for [d > 0]. It never
    normalises: the fraction [n/d] may have a common factor, and the work is
    integer multiplication only. [sign_at p] writes [p] over one denominator
    once, so apply it partially when probing many points. *)

val eval_float : t -> float -> float
(** Horner evaluation after converting each coefficient to [float]. *)

(** {1 Printing} *)

val to_string : ?var:string -> t -> string
val pp : Format.formatter -> t -> unit
