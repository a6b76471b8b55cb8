(** Lightweight span tracing with allocation profiling.

    [with_span name f] times [f ()] and records a completed span; spans
    nest, and the recorded depth reconstructs the call tree.  Durations are
    measured on a monotonic clock (immune to NTP steps); the wall-clock
    epoch timestamp is kept only for [start_s].  Each span also carries the
    GC allocation delta ([Gc.quick_stat] at entry vs exit).  Tracing is off
    by default and the disabled path is a single branch — no clock reads,
    no GC stats, no allocation.

    Span storage is domain-local: each domain records into its own buffer,
    so worker domains (see [Par_fold]) can trace without synchronization.
    Before a worker finishes it calls {!drain}; the main domain folds the
    result into its own buffer with {!absorb}.  The enable switch stays
    process-global. *)

type span = {
  name : string;
  depth : int;  (** nesting depth at entry; 0 for top-level spans *)
  tid : int;
      (** id of the domain the span completed on ([Domain.self] as an int);
          preserved across {!drain}/{!absorb}, so worker spans keep their
          origin — the Chrome trace export renders one track per [tid] *)
  start_s : float;  (** wall-clock seconds (Unix epoch) at entry *)
  dur_s : float;  (** monotonic-clock duration in seconds; never negative *)
  minor_words : float;  (** words allocated in the minor heap during the span *)
  major_words : float;  (** words allocated in the major heap during the span *)
  minor_collections : int;  (** minor GCs completed during the span *)
  major_collections : int;  (** major GC cycles completed during the span *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

val with_span : string -> (unit -> 'a) -> 'a
(** Runs the thunk; when tracing is enabled, records a span even if the
    thunk raises (the exception is re-raised). *)

val now_s : unit -> float
(** Wall-clock seconds; exposed so instrumented libraries can time code
    without depending on [unix] themselves. *)

val now_mono_s : unit -> float
(** Monotonic-clock seconds (arbitrary epoch).  Use differences only. *)

val emit : name:string -> start_s:float -> dur_s:float -> unit -> unit
(** Record a pre-timed top-level (depth 0) span on the calling domain's
    buffer (no-op while disabled).  For intervals no single {!with_span} can cover — e.g. a
    serve request admitted on one domain and answered from another: the
    worker emits the admission→terminal span next to its own solve span,
    so the two line up on one track in the Chrome trace.  GC fields are
    recorded as zero; negative durations clamp to 0. *)

val spans : unit -> span list
(** Completed spans in chronological (start-time) order.  At most
    {!max_recorded} spans are kept; see {!dropped}. *)

val live_spans : unit -> span list
(** Completed spans across {e every} live domain's buffer, chronological.
    Unlike {!spans} this may be called from any domain (the obs HTTP
    server's /snapshot uses it mid-run).  Reads are unsynchronized but
    memory-safe: span records and list cells are immutable once published,
    so a concurrent reader sees a consistent, possibly slightly stale,
    prefix of each domain's history.  Exact totals are only guaranteed
    after the owning domains have joined. *)

val max_recorded : int
val dropped : unit -> int

(** {1 Per-name profile} *)

type profile_row = {
  p_name : string;
  calls : int;
  total_s : float;
  p_minor_words : float;
  p_major_words : float;
  p_minor_collections : int;
  p_major_collections : int;
}

val profile : unit -> profile_row list
(** Aggregate duration and allocation per span name over every recorded
    span, sorted by descending total duration.  Nested spans contribute to
    both their own name and every enclosing name (no self-time
    subtraction). *)

val profile_of : span list -> profile_row list
(** The same aggregation over an explicit span list (e.g. {!live_spans}). *)

val clear : unit -> unit
(** Forget the calling domain's recorded spans (the enable switch is
    untouched). *)

(** {1 Cross-domain folding} *)

val drain : unit -> span list
(** Remove and return the calling domain's recorded spans (newest first,
    the order {!absorb} expects).  Resets the recorded and dropped counts
    but not the nesting depth, so it is safe to call from inside an open
    span (a worker draining before it joins).  Also removes the calling
    domain's buffer from the {!live_spans} registry, so exited workers do
    not accumulate there; the next recorded span re-registers it. *)

val absorb : span list -> unit
(** Append spans drained on another domain to the calling domain's buffer,
    preserving their recorded order and depths.  Spans beyond
    {!max_recorded} count as dropped. *)

val report : unit -> string
(** Human-readable report: an indented chronological tree of spans (capped)
    followed by the per-name profile with allocation deltas. *)
