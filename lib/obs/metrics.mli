(** Process-global metrics registry: named monotonic counters, gauges, and
    fixed-bucket histograms.

    Instrumented hot paths guard every update behind a single
    load-and-branch on {!on}, so with metrics disabled (the default) the
    whole subsystem costs one predictable branch per update site.  Metric
    objects are created once at module-initialization time and updated by
    mutation, so the hot path never hashes a name.

    Registration is idempotent: asking for a metric whose name is already
    registered returns the existing object (and raises [Invalid_argument]
    if the kind or buckets differ), which lets distant modules share a
    counter by name.

    Domain-safety: {e every} update is atomic — counters and per-bucket
    histogram tallies are atomic ints, gauges and histogram sums are
    atomic float cells maintained by compare-and-swap — so instrumented
    code may {!incr}/{!set}/{!observe} from any domain (Monte-Carlo
    workers, serve solver workers, supervisors) without losing or tearing
    an update.  Snapshots are exact under concurrent writers: a
    histogram's reported [count] is computed from the same per-bucket
    loads as its [counts], so the cumulative +Inf bucket always equals
    the count ([observe] adds to exactly one bucket, atomically).  The
    registry table itself is mutex-guarded, so {!snapshot} (and the live
    [/metrics] endpoint built on it) may run concurrently with
    registrations from any domain. *)

type counter
type gauge
type histogram

val on : bool ref
(** The global enable switch.  Read-only for instrumented code; use
    {!set_enabled} to flip it. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

(** {1 Registration} *)

val counter : ?help:string -> string -> counter
(** Find-or-create a monotonic counter. *)

val gauge : ?help:string -> string -> gauge
(** Find-or-create a gauge (a float that can move both ways). *)

val histogram : ?help:string -> buckets:float array -> string -> histogram
(** Find-or-create a histogram with the given strictly-increasing upper
    bucket bounds; an overflow (+Inf) bucket is implicit.  Bucket counts
    use [<=] (Prometheus [le]) semantics.
    @raise Invalid_argument on empty or non-increasing bounds, or if the
    name is already registered with different bounds. *)

val exponential_buckets : start:float -> factor:float -> count:int -> float array
(** [count] log-spaced upper bounds [start * factor^i], the standard
    latency-histogram shape (e.g. [~start:5e-4 ~factor:2. ~count:16] spans
    0.5 ms to ~16 s).
    @raise Invalid_argument unless [start > 0], [factor > 1], [count >= 1]. *)

(** {1 Updates (no-ops while disabled; all safe from any domain)} *)

val incr : counter -> unit
val add : counter -> int -> unit
(** @raise Invalid_argument on a negative increment: counters are
    monotonic. *)

val set : gauge -> float -> unit
val add_gauge : gauge -> float -> unit
(** Atomic read-modify-write; concurrent adds never lose an update. *)

val observe : histogram -> float -> unit

(** {1 Reading} *)

val counter_value : counter -> int
val gauge_value : gauge -> float

val histogram_counts : histogram -> int array
(** Per-bucket (not cumulative) counts with the overflow slot last —
    a fresh copy, one atomic load per bucket. *)

val histogram_sum : histogram -> float
val histogram_count : histogram -> int

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { bounds : float array; counts : int array; sum : float; count : int }
      (** [counts] are per-bucket (not cumulative) and carry one extra
          overflow slot: [Array.length counts = Array.length bounds + 1].
          [count] is computed from the same loads as [counts], so the two
          always reconcile exactly, even mid-run. *)

type sample = { name : string; help : string; value : value }

val snapshot : unit -> sample list
(** Every registered metric, sorted by name (registration order depends on
    link order, so it is not stable across binaries).  Every reader of the
    whole registry (the exporters, the HTTP plane, the {!Snapring}
    sampler) goes through it. *)

val find : string -> sample option

val reset : unit -> unit
(** Zero every registered metric's value; registrations survive. *)
