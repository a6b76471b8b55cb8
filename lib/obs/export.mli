(** Exporters for {!Metrics} snapshots.

    All three renderers are pure functions of a sample list, so callers can
    filter or merge snapshots before rendering and tests can pin golden
    output. *)

type format = Table | Json | Prometheus

val format_of_string : string -> format option
(** Recognizes ["table"], ["json"], ["prom"] and ["prometheus"]. *)

val format_to_string : format -> string

val render : format -> Metrics.sample list -> string

val to_table : Metrics.sample list -> string
(** Aligned human-readable table; histograms get one indented row per
    bucket (cumulative [<=] counts). *)

val to_json_lines : Metrics.sample list -> string
(** One JSON object per line, e.g.
    [{"name":"ddm_mc_samples_total","type":"counter","value":200000}].
    Histogram bucket counts are cumulative with an explicit ["+Inf"]
    bucket, mirroring the Prometheus exposition. *)

val to_prometheus : Metrics.sample list -> string
(** Prometheus text exposition format (version 0.0.4).  Metric names are
    sanitized with {!prom_name}, label values escaped with
    {!prom_escape_label}, and the output always ends with a newline (the
    format is line-oriented), even for an empty sample list. *)

val prom_name : string -> string
(** Sanitize a metric name to the exposition-format class
    [[a-zA-Z_:][a-zA-Z0-9_:]*]: invalid bytes (including a leading digit)
    become ['_']; the empty string becomes ["_"]. *)

val prom_escape_label : string -> string
(** Escape a label value: backslash, double-quote and newline become the
    two-character sequences backslash-backslash, backslash-quote and
    backslash-n. *)

val json_of_samples : Metrics.sample list -> string
(** A single JSON object grouping the snapshot by kind:
    [{"counters":{...},"gauges":{...},"histograms":{...}}].  Used by the
    [/snapshot] endpoint. *)

val moved_json : Metrics.sample list -> Jsonx.t
(** {!json_of_samples}'s grouping as a {!Jsonx.t}, keeping only the
    metrics that moved: counters and gauges other than 0, histograms
    with at least one observation.  Run records ({!Ledger} entries and
    perf-report experiments) carry this; [/metrics] and [/snapshot]
    render the full registry. *)

val histogram_quantile : bounds:float array -> counts:int array -> float -> float
(** Prometheus-style quantile estimate from per-bucket (non-cumulative)
    counts with the overflow slot last, as in {!Metrics.Histogram_v}:
    linear interpolation inside the bucket holding the [q]-th observation
    (the first bucket interpolates up from 0).  A rank landing in the
    overflow bucket reports the highest finite bound.  0 when the
    histogram is empty.  Powers the serve [/stats] p50/p90/p99/p999.
    @raise Invalid_argument when [q] is outside [0, 1] or the array
    lengths disagree. *)
