(** Lightweight span tracing with allocation profiling.

    [with_span name f] times [f ()] and records a completed span; spans
    nest, and the recorded depth reconstructs the call tree.  Durations are
    measured on a monotonic clock (immune to NTP steps); the wall-clock
    epoch timestamp is kept only for [start_s].  Each span also carries the
    words it allocated ([Gc.minor_words] and the domain's major-heap word
    count, read without allocating), read outside the timed interval, so a
    duration holds only the span's own work.  Tracing is off by default and the disabled path is a single
    branch — no clock reads, no GC reads, no allocation.

    Span storage is domain-local: each domain records into its own buffer,
    so worker domains (see [Par_fold]) can trace without synchronization.
    Before a worker finishes it calls {!drain}; the main domain folds the
    result into its own buffer with {!absorb}.  {!spans} reads every
    domain's buffer.  The enable switch stays process-global. *)

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
    so the two line up on one track in the Chrome trace.  Allocation
    fields are recorded as zero; negative durations clamp to 0. *)

val spans : unit -> span list
(** Completed spans of every registered domain's buffer, in chronological
    (start-time) order.  A domain registers when it records a span and
    unregisters when it calls {!drain}, so a worker's spans are read once,
    from the buffer that absorbed them.  Each domain keeps its first
    10 000 spans; later ones are counted as dropped, and {!report} prints
    the count.  Any domain may call it, mid-run (the obs HTTP server's
    /snapshot does).  Reads are unsynchronized but memory-safe: span
    records and list cells are immutable once published, so a concurrent
    reader sees a consistent, possibly slightly stale, prefix of each
    domain's history.  Exact totals are only guaranteed after the owning
    domains have joined; {!profile} keeps counting past the cap. *)

(** {1 Per-name profile} *)

type profile_row = {
  p_name : string;
  calls : int;
  total_s : float;
  p_minor_words : float;
  p_major_words : float;
}

val profile : unit -> profile_row list
(** Calls, duration and allocation per span name over every registered
    domain, sorted by descending total duration.  Each domain keeps these
    totals as it records, so they count the spans past the 10 000-span
    cap that {!spans} no longer holds; {!drain} clears the calling
    domain's, and {!absorb} adds the absorbed spans to the caller's.
    Nested spans contribute to both their own name and every enclosing
    name (no self-time subtraction).  Any domain may call it mid-run; a
    live read may lag the owning domains by a few spans. *)

(** {1 Cross-domain folding} *)

val drain : unit -> span list
(** Remove and return the calling domain's recorded spans (newest first,
    the order {!absorb} expects); the other domains' buffers are untouched.
    Resets the recorded and dropped counts and the domain's {!profile}
    totals, but not the nesting depth, so it is safe to call from inside
    an open span (a worker draining before it joins).  Also removes the
    calling domain's buffer from the registry {!spans} reads, so exited
    workers do not accumulate there; the next recorded span re-registers
    it.  [ignore (drain ())] forgets the calling domain's spans. *)

val absorb : span list -> unit
(** Append spans drained on another domain to the calling domain's buffer,
    preserving their recorded order and depths.  Spans beyond the
    10 000-span cap count as dropped. *)

val report : unit -> string
(** Human-readable report over {!spans}[ ()]: a header counting them and
    the spans every domain dropped, an indented chronological tree of
    spans (capped), then the per-name {!profile}[ ()] with allocation
    deltas. *)
