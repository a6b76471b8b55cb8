(** Periodic metrics-snapshot ring buffer.

    {!start} spawns a sampler domain that records the scalar metrics
    (counters, gauges, and each histogram's count/sum pair, projected from
    one {!Metrics.snapshot}) every 0.25 s into a ring of 240 samples, a
    minute of history; the oldest samples are overwritten.  The ring powers the
    /snapshot endpoint's history and the counter tracks of the Chrome
    trace export (histograms appear there as [name_count] and [name_sum]
    tracks, so request rate and latency mass plot over time).

    The sampler runs off the main domain, so counters read mid-run are the
    live atomic values; one extra mostly-sleeping domain is the whole cost.
    All entry points may be called from any domain. *)

type sample = {
  t_s : float;  (** Unix epoch seconds at sampling time *)
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;  (** sorted by name *)
  histograms : (string * (int * float)) list;
      (** per-histogram [(count, sum)], sorted by name — request-rate and
          latency-mass evolution without copying bucket arrays *)
}

val start : unit -> unit
(** Start the sampler (idempotent while running; an immediate sample is
    taken first). *)

val stop : unit -> unit
(** Stop and join the sampler, recording one final sample.  No-op when not
    running.  Stop latency is at most one period. *)

val running : unit -> bool

val sample_now : unit -> unit
(** Record one sample immediately (works with or without the sampler). *)

val samples : unit -> sample list
(** Live samples, oldest first. *)
