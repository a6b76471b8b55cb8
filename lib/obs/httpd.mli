(** Minimal HTTP/1.1 server: live observability plane + service transport.

    Built on the [unix] library alone — no web framework.  {!start} binds a
    loopback (by default) TCP socket and spawns one dedicated domain running
    the accept loop; requests are parsed serially and every connection is
    closed after a single response ([Connection: close]) unless a custom
    handler defers it.

    Built-in routes (GET and HEAD only):
    - [/]          plain-text index of endpoints
    - [/healthz]   liveness probe, body ["ok\n"]
    - [/metrics]   Prometheus text exposition rendered from the live
                   metrics registry ({!Export.to_prometheus}), so
                   mid-run scrapes observe the atomic counters as the
                   worker domains increment them
    - [/runs]      tail of the JSONL run ledger as JSON
                   ([ddm.runs/v1]; [?n=K] selects the tail length,
                   default 20; absent ledger renders empty; entries are
                   read across the ledger's rotation boundary,
                   {!Ledger.load_rotated})
    - [/snapshot]  one JSON document ([ddm.snapshot/v1]) with the full
                   metrics snapshot, the cross-domain span profile
                   ({!Trace.live_spans}), and the recent counter history
                   ({!Snapring.samples})

    A custom [handler] can be layered in front of the built-in routes,
    turning the endpoint into a request-processing service transport
    (lib/serve): the handler may answer inline ([Respond]), fall through
    ([Pass]), or take ownership of the connection ([Deferred]) and answer
    asynchronously from another domain via {!send_response} — the path
    that lets a worker pool answer while the accept loop keeps accepting.

    Request parsing is hardened against hostile input: request-line and
    total header-block byte caps (431 on overflow), a declared-body cap
    (413), and a total wall-clock read deadline (408) layered on top of
    the per-read [SO_RCVTIMEO] — a slowloris client dribbling one byte at
    a time cannot hold the parser beyond [read_deadline_s].  Rejected
    reads increment [ddm_obs_http_rejected_input_total].

    Unknown paths get 404; non-GET/HEAD methods not claimed by a handler
    get 405.  Per-connection failures (timeouts, resets, malformed
    requests) are contained and never escape the accept loop.  Each
    well-formed request increments [ddm_obs_http_requests_total]. *)

type response = {
  status : int;
  content_type : string;
  body : string;
  headers : (string * string) list;  (** extra response headers, e.g. [("Retry-After", "1")] *)
}

val json : ?status:int -> ?headers:(string * string) list -> string -> response
(** [application/json] response. *)

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  req_body : string;  (** the declared body, fully read (empty without [Content-Length]) *)
  client : Unix.file_descr;  (** the connection; to be used only after returning [Deferred] *)
}

(** What a custom handler did with a request. *)
type handler_result =
  | Respond of response  (** answer now; the server writes and closes *)
  | Deferred
      (** the handler took ownership of [request.client] and will answer
          later (from any domain) with {!send_response}; the server
          neither writes nor closes *)
  | Pass  (** fall through to the built-in observability routes *)

type limits = {
  max_line_bytes : int;  (** request-line cap (431 on overflow) *)
  max_header_bytes : int;  (** total header-block cap (431) *)
  max_body_bytes : int;  (** declared [Content-Length] cap (413) *)
  read_deadline_s : float;  (** total wall-clock budget for reading one request (408) *)
  read_timeout_s : float;  (** per-read [SO_RCVTIMEO]/[SO_SNDTIMEO] *)
}

type server

val start :
  ?host:string ->
  ?ledger_file:string ->
  ?limits:limits ->
  ?handler:(request -> handler_result) ->
  port:int ->
  unit ->
  (server, string) result
(** Bind [host] (default ["127.0.0.1"]) on [port] and start serving on a
    fresh domain.  [port = 0] picks an ephemeral port — read it back with
    {!port}.  [ledger_file] backs the [/runs] endpoint.  [limits]
    defaults to a 4 KiB request line, 16 KiB of headers, a 64 KiB body,
    a 5 s read deadline and a 2 s per-read timeout.  [handler], when
    given, is consulted before the built-in routes for every well-formed
    request; it runs on the server domain, so it must be quick (check a
    cache, enqueue work — never solve inline).  [Error msg] when the
    bind/listen fails (e.g. the port is taken); the socket is closed on
    that path.  Also ignores [SIGPIPE] process-wide, so clients that hang
    up mid-response surface as [EPIPE] instead of killing the process.
    @raise Invalid_argument on a port outside [0, 65535] or an unparsable
    [host]. *)

val port : server -> int
(** The actually-bound port (useful after [port:0]). *)

val stop : server -> unit
(** Signal the accept loop, join its domain and close the listening
    socket.  Returns within ~a quarter second (the loop's poll timeout).
    Idempotent.  Connections already deferred to a handler are unaffected
    — their owners still answer via {!send_response}. *)

val send_response : Unix.file_descr -> response -> unit
(** Write a complete response to a deferred connection, then close it.
    Transport errors (client hung up) are swallowed.  Safe from any
    domain; call exactly once per deferred connection. *)
