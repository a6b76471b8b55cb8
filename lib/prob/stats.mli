(** Streaming statistics and confidence intervals for the Monte-Carlo
    cross-validation harness. *)

(** {1 Online moments (Welford)} *)

type acc

val empty : acc
val add : acc -> float -> acc
val count : acc -> int
val mean : acc -> float
val variance : acc -> float
(** Unbiased sample variance; [0.] with fewer than two observations. *)

val stddev : acc -> float

val of_array : float array -> acc

val of_moments : count:int -> mean:float -> m2:float -> acc
(** Rebuild an accumulator from raw Welford moments ([count] samples,
    running [mean], sum of squared deviations [m2]).  For batch kernels
    that keep the moments in unboxed local cells ({!Mc_kernel}): feeding
    the same samples in the same order through [add] yields the same
    accumulator bit-for-bit.
    @raise Invalid_argument when [count < 0]. *)

val merge : acc -> acc -> acc
(** Combine two accumulators as if every sample had been fed to one (Chan
    et al. parallel update).  Deterministic for a fixed merge order, which
    is how the lease-sharded samplers keep parallel estimates independent
    of the worker count. *)

(** {1 Proportion confidence intervals} *)

val wilson_interval : ?z:float -> successes:int -> trials:int -> unit -> float * float
(** Wilson score interval for a binomial proportion; default [z = 1.96]
    (95%).
    @raise Invalid_argument when [trials <= 0] or [successes] lies outside
    [[0, trials]] (the formula would silently produce a garbage interval). *)

(** {1 Histogram} *)

type histogram = {
  lo : float;
  hi : float;
  counts : int array;
  mutable total : int;  (** every observed sample, outliers included *)
  mutable outliers : int;  (** samples outside [[lo, hi]]; not in any bin *)
}

val histogram : bins:int -> lo:float -> hi:float -> float array -> histogram
(** Samples outside [[lo, hi]] are counted in [outliers] rather than being
    clipped into the edge bins ([x = hi] lands in the last bin).
    Non-finite samples (NaN, infinities) also count as outliers — NaN used
    to fail both range comparisons and land in bin 0. *)

val histogram_empty : bins:int -> lo:float -> hi:float -> histogram
val histogram_observe : histogram -> float -> unit

val histogram_merge : histogram -> histogram -> histogram
(** Bin-wise sum of two histograms with identical [lo]/[hi]/bin count.
    @raise Invalid_argument when the shapes differ. *)

val histogram_density : histogram -> int -> float
(** Empirical density of bin [i], normalized over the in-range samples
    ([total - outliers]) so the bins integrate to one; [0.] when every
    sample was an outlier.
    @raise Invalid_argument naming the accessor and the valid range when
    [i] is outside [[0, bins)]. *)

val bin_center : histogram -> int -> float
(** Midpoint of bin [i].
    @raise Invalid_argument naming the accessor and the valid range when
    [i] is outside [[0, bins)]. *)
