(** Arbitrary-precision signed integers.

    The container provides no [zarith]; the paper's inclusion-exclusion sums
    and optimality-condition polynomials require exact arithmetic, so this
    module implements big integers from scratch.

    Representation: sign-magnitude with little-endian limbs in base [2^30]
    (products of two limbs plus carries fit comfortably in OCaml's 63-bit
    native [int]). All values are normalized: no leading zero limbs, and zero
    has an empty magnitude with sign [0]. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int_opt : t -> int option
(** [None] when the value does not fit in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val of_string : string -> t
(** Parses an optional sign followed by decimal digits; underscores are
    allowed as separators. @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val to_float : t -> float
(** Nearest-double approximation (exact when the value fits in 53 bits). *)

(** {1 Predicates and comparison} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val hash : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val succ : t -> t
val pred : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], [q] rounded toward zero and
    [r] carrying the sign of [a] (truncated division, as in OCaml's [/] and
    [mod]). @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv_rem : t -> t -> t * t
(** Euclidean division: the remainder is always non-negative. *)

val pow : t -> int -> t
(** [pow x k] for [k >= 0]. @raise Invalid_argument on negative exponent. *)

val gcd : t -> t -> t
(** Non-negative gcd; [gcd zero zero = zero]. *)

val shift_left : t -> int -> t
(** Multiplication by [2^k], [k >= 0]. *)

val shift_right : t -> int -> t
(** Magnitude shift (truncation toward zero) by [k >= 0] bits. *)

val bit_length : t -> int
(** Number of bits in the magnitude; [bit_length zero = 0]. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
