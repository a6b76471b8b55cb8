(** Combinatorial primitives used by the inclusion-exclusion machinery:
    factorials, binomial coefficients, and subset-enumeration folds.  A
    closed form that wants them in a number field maps them through
    {!Field.S.of_bigint}. *)

(** {1 Counting} *)

val factorial : int -> Bigint.t
(** Memoized. @raise Invalid_argument on negative input. *)

val binomial : int -> int -> Bigint.t
(** [binomial n k] is [n choose k]; zero when [k < 0] or [k > n].
    @raise Invalid_argument when [n < 0]. *)

val falling_factorial : int -> int -> Bigint.t
(** [falling_factorial n k] is [n (n-1) ... (n-k+1)]. *)

val popcount : int -> int
(** Number of set bits of a non-negative [int]. *)

val int_pow : float -> int -> float
(** [int_pow x k] for [k >= 0] by binary exponentiation. *)

(** {1 Subset enumeration}

    [fold_subsets ~n ~init ~f] folds [f] over all [2^n] bitmasks of
    [{0, ..., n-1}] in increasing mask order. *)
val fold_subsets : n:int -> init:'a -> f:('a -> int -> 'a) -> 'a

val fold_subset_sums_gen :
  add:('v -> 'v -> 'v) ->
  sub:('v -> 'v -> 'v) ->
  zero:'v ->
  'v array ->
  init:'a ->
  f:('a -> size:int -> sum:'v -> 'a) ->
  'a
(** Folds over all subsets of the array's index set, over any commutative
    group (e.g. {!Rat.t} or [float] with [( +. )]/[( -. )]), presenting the
    subset cardinality and the sum of the selected elements.  Subset sums
    are maintained incrementally along a Gray-code walk, so the total cost
    is [O(2^n)] rather than [O(n 2^n)]. *)
