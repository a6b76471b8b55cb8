(** Chrome trace-event JSON export — the format loaded by
    {{:https://ui.perfetto.dev}Perfetto} and [chrome://tracing].

    Every {!Trace.span} becomes a complete event (ph ["X"]) on the track of
    the domain it ran on ([span.tid]), carrying exactly three args: the
    span's [depth], [minor_words] and [major_words]; tracks are labeled
    ["domain N"] via thread_name metadata events.  An optional {!Snapring} history adds counter events
    (ph ["C"]) so metric evolution can be read against the span timeline;
    sampled histograms contribute [name_count] and [name_sum] tracks, so
    request rate and latency mass plot over time next to the spans.
    Timestamps are rebased on the earliest span so traces start at 0.

    Typical use: run with tracing enabled, then
    [Chrome_trace.write ~file (Trace.spans ())] and open the file in
    Perfetto. *)

val json : ?counters:Snapring.sample list -> Trace.span list -> string
(** Render a complete trace document
    ([{"displayTimeUnit":"ms","traceEvents":[...]}]) as one
    newline-terminated line, by {!Jsonx}: numbers at full precision.
    Counters that are zero in every sample — and histograms with no
    observations in any sample — are omitted. *)

val write : file:string -> ?counters:Snapring.sample list -> Trace.span list -> unit
(** {!json} written to [file] (truncating). *)
