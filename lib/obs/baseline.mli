(** Bench-report baselines and regression detection.

    Loads [ddm.bench.report/v1] (PR 1's one-shot format) and [/v2] (adds
    per-experiment GC deltas, MC-span throughput, per-repeat [runs], and
    top-level seed / git-rev provenance), merges repeated runs, and
    classifies per-experiment wall-time deltas under a noise model.  A
    delta only counts as signal when it clears a relative threshold AND an
    absolute floor AND (when both sides carry repeated runs) a Welch
    z-test — anything else is {!Noise}. *)

val schema_v1 : string
val schema_v2 : string

type experiment = {
  id : string;
  wall_seconds : float;  (** mean over [runs] *)
  runs : float list;  (** individual wall times; [[wall_seconds]] for v1 records *)
  mc_samples : int;
  mc_samples_per_sec : float;
      (** throughput over the whole experiment window, including non-MC
          phases — kept with v1 semantics for old readers *)
  mc_span_seconds : float option;  (** v2: time spent inside MC sampling spans *)
  mc_samples_per_sec_mc : float option;  (** v2: throughput over the MC span only *)
  gc : Ledger.gc_stats option;  (** v2: allocation delta over the experiment *)
  metrics : Jsonx.t option;
      (** grouped metrics, passed through; {!measure} keeps only what
          moved ({!Export.moved_json}) *)
}

type report = {
  version : int;  (** 1 or 2 *)
  suite : string;
  created_s : float option;  (** v2: Unix epoch seconds at write time *)
  rev : string option;  (** v2: git revision *)
  seed : int option;  (** v2: base PRNG seed of the run, when one exists *)
  jobs : int option;  (** v2: worker domains ([-j]) the MC workloads used *)
  total_wall_seconds : float;
  experiments : experiment list;
}

val of_json : Jsonx.t -> (report, string) result
val load : string -> (report, string) result
(** Read and parse a report file; both schema versions are accepted. *)

val merge : report list -> report
(** Pool same-id experiments across repeated runs: run lists concatenate
    and wall time becomes the pooled mean (input order of first appearance
    is kept).  @raise Invalid_argument on an empty list. *)

val to_json : report -> Jsonx.t
val write : file:string -> report -> unit
(** Writers emit v2 unless [version <= 1]. *)

(** {1 Recording} *)

val measure : repeat:int -> id:string -> (int -> unit) -> experiment
(** Record one experiment: [f k] for [k = 0 .. repeat-1], each timed on
    the monotonic clock under a freshly reset metrics registry and trace
    buffer.  The per-repeat wall times become [runs]; the MC sample count
    ([ddm_mc_samples_total]), the time inside the MC sampling spans, the
    GC delta and the metrics that moved are the final repeat's.  The
    attribution reads the live registry and trace buffer, so it is zero
    unless the caller enabled metrics and tracing.
    @raise Invalid_argument when [repeat < 1]. *)

val report : suite:string -> ?seed:int -> ?jobs:int -> experiment list -> report
(** A v2 report of [experiments], stamped with the current time and the
    git revision. *)

(** {1 Regression classification} *)

type noise = {
  rel_tolerance : float;  (** minimum |delta| / old to count as signal *)
  min_delta_s : float;  (** absolute wall-time floor in seconds *)
  z : float;  (** Welch z-gate, applied only with >= 2 runs per side *)
}

val default_noise : noise
(** [{ rel_tolerance = 0.25; min_delta_s = 0.002; z = 2.5 }]. *)

type verdict = Improvement | Regression | Noise | Added | Removed

val verdict_to_string : verdict -> string

type comparison = {
  c_id : string;
  old_s : float;
  new_s : float;
  delta_s : float;
  ratio : float;  (** new/old; [nan] when old is 0 or the id is unmatched *)
  z_score : float option;  (** Welch z when both sides have >= 2 runs *)
  verdict : verdict;
}

val diff : ?noise:noise -> old_report:report -> new_report:report -> unit -> comparison list
(** One comparison per experiment in [new_report]'s order, then one
    {!Removed} row per baseline experiment that disappeared. *)

val has_regression : comparison list -> bool

val to_table : comparison list -> string
(** Aligned table (delta column in milliseconds) plus a one-line summary. *)

val to_csv : comparison list -> string
val diff_to_json : ?noise:noise -> comparison list -> string
(** Single [ddm.perf.diff/v1] JSON object recording the noise model, every
    comparison, and the regression count. *)
