(** Deterministic, seedable pseudo-random number generator.

    Implementation: xoshiro256++ seeded through splitmix64, written from
    scratch (the reproduction avoids [Random] so that every experiment is
    bit-reproducible across OCaml versions). *)

type t

val create : seed:int -> t
val copy : t -> t

val split : t -> t
(** Derive an independently-seeded generator, advancing the parent by one
    draw. Lets a consumer (e.g. fault injection, or one sweep point of a
    chaos run) own its stream, so adding draws in one place never shifts
    the randomness seen by another. *)

val next_int64 : t -> int64
(** Raw 64-bit output. *)

val float01 : t -> float
(** Uniform in [[0, 1)], 53 random bits. *)

val uniform : t -> float -> float -> float
(** [uniform t a b]: uniform in [[a, b)]. *)

val int_below : t -> int -> int
(** Uniform in [[0, n)], unbiased (rejection sampling). [n > 0]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

(** {1 Batch fill streams}

    Alloc-free generators for batch kernels ({!Mc_kernel}).  A fill stream
    is a splitmix-style counter generator over native 63-bit ints, seeded
    deterministically from a parent generator; it produces a different
    sequence than the parent's own [float01] draws, so kernel consumers
    agree with scalar consumers statistically rather than bit-for-bit. *)

type fill

val fill_of : t -> fill
(** Derive a fill stream, advancing the parent by exactly two draws.  The
    result is a pure function of the parent's state, so seed
    determinism carries over to every value the fill produces. *)

val fill_float : fill -> float
(** One uniform draw in [[0, 1)], 53 random bits — the scalar mirror of
    {!fill_float01}, byte-for-byte the sequence the batch fill writes. *)

val fill_float01 :
  fill ->
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  pos:int ->
  len:int ->
  unit
(** Fill [buf.(pos .. pos+len-1)] with uniform draws in [[0, 1)],
    advancing the stream by [len].  Equivalent to [len] calls of
    {!fill_float}.
    @raise Invalid_argument when the range falls outside the buffer. *)
