(* A deliberately small HTTP/1.1 server (Unix module only, no external web
   stack).  Two jobs:

   1. The live observability plane:

        GET /          index of endpoints
        GET /healthz   liveness probe
        GET /metrics   Prometheus text exposition, rendered from the live
                       atomic counters mid-run
        GET /runs      tail of the JSONL run ledger (?n=K, default 20),
                       read across the ledger's rotation boundary
        GET /snapshot  full JSON snapshot: metrics, cross-domain span
                       profile, recent counter history (Snapring)

   2. A transport for request-processing services (lib/serve): [start]
      accepts an optional [handler] consulted before the built-in routes.
      A handler may answer inline ([Respond]), fall through ([Pass]), or
      take ownership of the connection ([Deferred]) and answer later from
      another domain via [send_response] — the asynchronous path that lets
      a worker pool answer while the accept loop keeps accepting.

   One accept loop on a dedicated domain; requests are parsed serially
   (parsing is cheap and byte-capped), each connection closed after one
   response unless deferred.  The loop polls a stop flag via a select
   timeout so [stop] returns within ~a quarter second.

   Input hardening (slowloris et al.): the request line is capped, the
   total header block is capped (431 on overflow), bodies are capped (413),
   and the whole read is bounded by a wall-clock deadline (408): each read
   waits at most the per-read SO_RCVTIMEO, cut to the time left before the
   deadline, so neither a client dribbling one byte per second nor one that
   sends nothing holds the accept loop past [read_deadline_s]. *)

type response = {
  status : int;
  content_type : string;
  body : string;
  headers : (string * string) list;
}

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  req_body : string;
  client : Unix.file_descr;
}

type handler_result = Respond of response | Deferred | Pass

type limits = {
  max_line_bytes : int;
  max_header_bytes : int;
  max_body_bytes : int;
  read_deadline_s : float;
  read_timeout_s : float;
}

let default_limits =
  {
    max_line_bytes = 4096;
    max_header_bytes = 16384;
    max_body_bytes = 65536;
    read_deadline_s = 5.0;
    read_timeout_s = 2.0;
  }

type server = {
  fd : Unix.file_descr;
  actual_port : int;
  started_s : float;
  stop_flag : bool Atomic.t;
  limits : limits;
  handler : (request -> handler_result) option;
  mutable dom : unit Domain.t option;
}

let requests =
  Metrics.counter ~help:"HTTP requests served by the obs endpoint" "ddm_obs_http_requests_total"

let rejected_input =
  Metrics.counter ~help:"HTTP connections rejected while reading the request (408/413/431)"
    "ddm_obs_http_rejected_input_total"

let status_text = function
  | 200 -> "OK"
  | 202 -> "Accepted"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | _ -> "Internal Server Error"

let text ?(status = 200) ?(headers = []) body =
  { status; content_type = "text/plain; charset=utf-8"; body; headers }

let json ?(status = 200) ?(headers = []) body =
  { status; content_type = "application/json"; body; headers }

(* ------------------------------ routes ------------------------------ *)

let index_body =
  "ddm observability endpoint\n\
   GET /healthz   liveness\n\
   GET /metrics   Prometheus text exposition (live)\n\
   GET /runs      run-ledger tail as JSON (?n=K)\n\
   GET /snapshot  metrics + span profile + recent history as JSON\n"

let profile_json () =
  Jsonx.Arr
    (List.map
       (fun (r : Trace.profile_row) ->
         Jsonx.Obj
           [
             ("name", Jsonx.Str r.Trace.p_name);
             ("calls", Jsonx.Num (float_of_int r.Trace.calls));
             ("total_s", Jsonx.Num r.Trace.total_s);
             ("minor_words", Jsonx.Num r.Trace.p_minor_words);
             ("major_words", Jsonx.Num r.Trace.p_major_words);
           ])
       (Trace.profile ()))

let history_json () =
  Jsonx.Arr
    (List.map
       (fun (s : Snapring.sample) ->
         Jsonx.Obj
           [
             ("t_s", Jsonx.Num s.Snapring.t_s);
             ("counters",
              Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Num (float_of_int v))) s.Snapring.counters));
             ("gauges", Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Num v)) s.Snapring.gauges));
             ("histograms",
              Jsonx.Obj
                (List.map
                   (fun (k, (n, sum)) ->
                     ( k,
                       Jsonx.Obj
                         [ ("count", Jsonx.Num (float_of_int n)); ("sum", Jsonx.Num sum) ] ))
                   s.Snapring.histograms));
           ])
       (Snapring.samples ()))

let snapshot_body ~started_s () =
  let now = Unix.gettimeofday () in
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("schema", Jsonx.Str "ddm.snapshot/v1");
         ("t_s", Jsonx.Num now);
         ("uptime_s", Jsonx.Num (now -. started_s));
         ("metrics", Export.grouped_json (Metrics.snapshot ()));
         ("profile", profile_json ());
         ("history", history_json ());
       ])

let runs_body ~ledger_file n =
  match ledger_file with
  | None ->
    Jsonx.to_string
      (Jsonx.Obj
         [ ("schema", Jsonx.Str "ddm.runs/v1"); ("file", Jsonx.Null); ("skipped", Jsonx.Num 0.);
           ("entries", Jsonx.Arr []) ])
  | Some file ->
    let entries, skipped = Ledger.load_rotated ~file in
    let total = List.length entries in
    let tail = if total > n then List.filteri (fun i _ -> i >= total - n) entries else entries in
    Jsonx.to_string
      (Jsonx.Obj
         [
           ("schema", Jsonx.Str "ddm.runs/v1");
           ("file", Jsonx.Str file);
           ("total", Jsonx.Num (float_of_int total));
           ("skipped", Jsonx.Num (float_of_int skipped));
           ("entries", Jsonx.Arr (List.map Ledger.to_json tail));
         ])

let query_int q key ~default =
  match List.assoc_opt key q with
  | Some v -> ( match int_of_string_opt v with Some n when n > 0 -> n | _ -> default)
  | None -> default

let route ~ledger_file ~started_s { meth; path; query; _ } =
  match (meth, path) with
  | ("GET" | "HEAD"), "/" -> text index_body
  | ("GET" | "HEAD"), "/healthz" -> text "ok\n"
  | ("GET" | "HEAD"), "/metrics" ->
    {
      status = 200;
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      body = Export.to_prometheus (Metrics.snapshot ());
      headers = [];
    }
  | ("GET" | "HEAD"), "/runs" -> json (runs_body ~ledger_file (query_int query "n" ~default:20))
  | ("GET" | "HEAD"), "/snapshot" -> json (snapshot_body ~started_s ())
  | ("GET" | "HEAD"), _ -> text ~status:404 "not found\n"
  | _ -> text ~status:405 "method not allowed\n"

(* --------------------------- request parsing --------------------------- *)

let bad_request = text ~status:400 "bad request\n"
let too_large = text ~status:431 "request header fields too large\n"

(* The first [Content-Length] line's value, its name matched in any case;
   [None] when there is none or it is not an int, and then no body is read. *)
let content_length lines =
  let is_length line =
    String.length line > 14 && line.[14] = ':'
    && String.lowercase_ascii (String.sub line 0 14) = "content-length"
  in
  Option.bind (List.find_opt is_length lines) (fun line ->
    int_of_string_opt (String.trim (String.sub line 15 (String.length line - 15))))

(* Read one request in one pass under the caps and the wall-clock deadline:
   the header block, then its declared body.  A refusal is the response
   the client gets. *)
let read_request ~(limits : limits) client =
  let ( let* ) = Result.bind in
  let t0 = Trace.now_mono_s () in
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  (* returns after new bytes.  A read waits no longer than the time left
     before the deadline: under [read_timeout_s] left, SO_RCVTIMEO shrinks
     to it, and under 1 ms left the answer is 408, since an SO_RCVTIMEO
     of 0 never times out. *)
  let rec read_more () =
    let left = limits.read_deadline_s -. (Trace.now_mono_s () -. t0) in
    if left < 0.001 then Error (text ~status:408 "request read deadline exceeded\n")
    else begin
      if left < limits.read_timeout_s then Unix.setsockopt_float client Unix.SO_RCVTIMEO left;
      match Unix.read client chunk 0 (Bytes.length chunk) with
      | 0 -> Error bad_request
      | k -> Ok (Buffer.add_subbytes buf chunk 0 k)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        read_more ()
    end
  in
  (* each byte is scanned once: [eol] is the first '\n' seen, and the
     block ends just past the first "\r\n\r\n" *)
  let eol = ref (-1) in
  let rec scan i =
    if i >= Buffer.length buf then None
    else if Buffer.nth buf i <> '\n' then scan (i + 1)
    else begin
      if !eol < 0 then eol := i;
      if i >= 3 && Buffer.nth buf (i - 1) = '\r' && Buffer.nth buf (i - 2) = '\n'
         && Buffer.nth buf (i - 3) = '\r'
      then Some (i + 1)
      else scan (i + 1)
    end
  in
  (* the caps apply to complete requests too, but a complete first line
     alone waits for the rest of the block *)
  let rec headers from =
    let n = Buffer.length buf in
    match scan from with
    | Some hdr_end ->
      if !eol + 1 > limits.max_line_bytes || hdr_end > limits.max_header_bytes then
        Error too_large
      else Ok hdr_end
    | None ->
      if n > limits.max_header_bytes || (!eol < 0 && n > limits.max_line_bytes) then
        Error too_large
      else
        let* () = read_more () in
        headers n
  in
  let* hdr_end = headers 0 in
  let lines = String.split_on_char '\n' (Buffer.sub buf 0 hdr_end) in
  let* clen =
    match content_length lines with
    | Some clen when clen > limits.max_body_bytes ->
      Error (text ~status:413 "request body too large\n")
    | Some clen when clen < 0 -> Error bad_request
    | clen -> Ok (Option.value ~default:0 clen)
  in
  let rec body () =
    if Buffer.length buf >= hdr_end + clen then Ok (Buffer.sub buf hdr_end clen)
    else
      let* () = read_more () in
      body ()
  in
  let* req_body = body () in
  match String.split_on_char ' ' (String.trim (List.hd lines)) with
  | meth :: target :: _ ->
    let path, query =
      match String.index_opt target '?' with
      | None -> (target, [])
      | Some i ->
        ( String.sub target 0 i,
          String.split_on_char '&' (String.sub target (i + 1) (String.length target - i - 1))
          |> List.filter_map (fun kv ->
                 match String.index_opt kv '=' with
                 | Some j ->
                   Some (String.sub kv 0 j, String.sub kv (j + 1) (String.length kv - j - 1))
                 | None -> if kv = "" then None else Some (kv, "")) )
    in
    Ok { meth; path; query; req_body; client }
  | _ -> Error bad_request

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | 0 -> ()
      | k -> go (off + k)
  in
  go 0

let render_response ~head_only { status; content_type; body; headers } =
  let extra =
    String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers)
  in
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%sConnection: close\r\n\r\n"
      status (status_text status) content_type (String.length body) extra
  in
  if head_only then head else head ^ body

let respond fd ~head_only r = write_all fd (render_response ~head_only r)

(* Terminal response on a connection whose ownership was deferred: write,
   then close, swallowing transport errors (the client may be gone).  Safe
   to call from any domain. *)
let send_response fd r =
  (try respond fd ~head_only:false r with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let handle_connection ~ledger_file ~limits ~handler ~started_s client =
  let deferred = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !deferred then try Unix.close client with Unix.Unix_error _ -> ())
    (fun () ->
      (* a stuck or hostile client must not wedge the accept loop *)
      Unix.setsockopt_float client Unix.SO_RCVTIMEO limits.read_timeout_s;
      Unix.setsockopt_float client Unix.SO_SNDTIMEO limits.read_timeout_s;
      match read_request ~limits client with
      | Error refusal ->
        if refusal.status <> 400 then Metrics.incr rejected_input;
        respond client ~head_only:false refusal
      | Ok req -> (
        Metrics.incr requests;
        let head_only = req.meth = "HEAD" in
        match (match handler with Some h -> h req | None -> Pass) with
        | Respond r -> respond client ~head_only r
        | Deferred -> deferred := true
        | Pass -> respond client ~head_only (route ~ledger_file ~started_s req)))

(* ------------------------------ lifecycle ------------------------------ *)

let serve ~ledger_file server =
  while not (Atomic.get server.stop_flag) do
    match Unix.select [ server.fd ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept server.fd with
      | client, _ -> (
        try
          handle_connection ~ledger_file ~limits:server.limits ~handler:server.handler
            ~started_s:server.started_s client
        with Unix.Unix_error _ | Sys_error _ -> ())
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let start ?(host = "127.0.0.1") ?ledger_file ?(limits = default_limits) ?handler ~port () =
  if port < 0 || port > 65535 then invalid_arg "Httpd.start: port must be in [0, 65535]";
  (* writes to a client that hung up must surface as EPIPE, not kill the
     process; harmless to set more than once *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> raise (Invalid_argument (Printf.sprintf "Httpd.start: bad host %S" host))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 64
  with
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Unix.error_message e)
  | () ->
    let actual_port =
      match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
    in
    let server =
      {
        fd;
        actual_port;
        started_s = Unix.gettimeofday ();
        stop_flag = Atomic.make false;
        limits;
        handler;
        dom = None;
      }
    in
    server.dom <- Some (Domain.spawn (fun () -> serve ~ledger_file server));
    Ok server

let port server = server.actual_port

let stop server =
  if not (Atomic.get server.stop_flag) then begin
    Atomic.set server.stop_flag true;
    Option.iter Domain.join server.dom;
    server.dom <- None;
    try Unix.close server.fd with Unix.Unix_error _ -> ()
  end
