(** Number fields for the paper's closed forms.

    Each closed form of Sections 2, 4 and 5 (Lemmas 2.4-2.7, Prop. 2.2,
    Thm 4.1, Thm 5.1) is written once, in a functor over {!S}, and
    instantiated twice: {!Float}, the IEEE-double path behind every float
    answer, and {!Q}, exact rationals, the oracle.  By convention a
    closed-form module [M] does [include M.Make (Field.Float)] at top level
    and exports [M.Q = M.Make (Field.Q)]: [M.f] is the float answer and
    [M.Q.f] the exact one. *)

module type S = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t

  val of_bigint : Bigint.t -> t
  (** Exact in {!Q}; the nearest double in {!Float}. *)

  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t

  val pow : t -> int -> t
  (** [pow x k] for [k >= 0], by square-and-multiply
      ({!Combinat.int_pow} in {!Float}). *)

  val lt : t -> t -> bool
  val leq : t -> t -> bool
  (** The order.  In {!Float} these are IEEE [<] and [<=], so every
      comparison with [nan] is false and a range check written
      [not (leq zero x && leq x one)] rejects [nan]. *)

  val subset_power_sum : t array -> t -> int -> t
  (** [subset_power_sum w t k] is the alternating subset-power sum
      [Σ_I (-1)^|I| (t - Σ_{i∈I} w_i)₊^k] over all subsets [I] of [w]'s
      indices: the inclusion-exclusion core of Lemma 2.4 and Prop. 2.2.
      Subsets are visited in the Gray-code order of
      {!Combinat.fold_subset_sums_gen}, with the subset sum kept
      incrementally, and a term is added only when [Σ_I w < t].  Cost
      [O(2^m)] for [m = Array.length w <= 62].
      @raise Invalid_argument when [w] has more than 62 elements. *)
end

module Float : S with type t = float
(** IEEE doubles.  {!S.subset_power_sum} is one monomorphic loop, so the
    innermost loop of the Theorem 5.1 fold runs on unboxed floats; its
    value is bit-identical to the generic Gray-code walk over floats. *)

module Q : S with type t = Rat.t
(** Exact rationals.  {!S.subset_power_sum} runs on
    {!Combinat.fold_subset_sums_gen}. *)
