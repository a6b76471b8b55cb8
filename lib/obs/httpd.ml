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
   and the whole read is bounded by a wall-clock deadline (408) layered on
   top of the per-read SO_RCVTIMEO — a client dribbling one byte per
   second cannot hold the parser hostage. *)

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
       (Trace.profile (Trace.spans ())))

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

let route ~ledger_file ~started_s meth path query =
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

type parsed =
  | Parsed of { meth : string; path : string; query : (string * string) list; body : string }
  | Line_too_long  (** request line exceeded the cap -> 431 *)
  | Headers_too_large  (** header block exceeded the cap -> 431 *)
  | Body_too_large  (** declared Content-Length exceeded the cap -> 413 *)
  | Timed_out  (** whole-request read deadline expired -> 408 *)
  | Malformed  (** EOF mid-request or an unparseable request line -> 400 *)

(* Index just past the "\r\n\r\n" terminating the header block, scanning
   from [from] (so incremental reads don't rescan the whole buffer). *)
let find_headers_end s from =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then Some (i + 4)
    else go (i + 1)
  in
  go (max 0 from)

let content_length_of headers_block =
  let lower = String.lowercase_ascii headers_block in
  let needle = "content-length:" in
  let rec find i =
    if i + String.length needle > String.length lower then None
    else if String.sub lower i (String.length needle) = needle
            && (i = 0 || lower.[i - 1] = '\n')
    then
      let rest = String.sub lower (i + String.length needle)
          (String.length lower - i - String.length needle) in
      let line = match String.index_opt rest '\r' with
        | Some e -> String.sub rest 0 e
        | None -> rest
      in
      int_of_string_opt (String.trim line)
    else find (i + 1)
  in
  find 0

(* Read the header block (and any declared body) under the caps and the
   wall-clock deadline.  Returns the raw bytes up to the end of headers
   plus the body, or the rejection reason. *)
let read_request ~(limits : limits) fd =
  let t0 = Trace.now_mono_s () in
  let deadline_left () = limits.read_deadline_s -. (Trace.now_mono_s () -. t0) in
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let read_more () =
    if deadline_left () <= 0. then `Deadline
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> `Eof
      | k ->
        Buffer.add_subbytes buf chunk 0 k;
        `Read
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        (* the per-read SO_RCVTIMEO fired; the overall deadline decides
           whether we keep waiting *)
        if deadline_left () <= 0. then `Deadline else `Read
  in
  let rec headers () =
    let s = Buffer.contents buf in
    match find_headers_end s (Buffer.length buf - Bytes.length chunk - 3) with
    | Some hdr_end ->
      (* the caps apply to complete requests too — an oversized line or
         header block that arrives terminated in a single read is just as
         rejected as one that is still streaming in *)
      if
        match String.index_opt s '\n' with
        | Some eol -> eol + 1 > limits.max_line_bytes
        | None -> false
      then `Line
      else if hdr_end > limits.max_header_bytes then `Too_large
      else `Headers (s, hdr_end)
    | None ->
      if Buffer.length buf > limits.max_header_bytes then `Too_large
      else if
        (* the first line must terminate within the line cap *)
        (not (String.contains s '\n')) && Buffer.length buf > limits.max_line_bytes
      then `Line
      else (
        match read_more () with
        | `Read -> headers ()
        | `Eof -> `Eof
        | `Deadline -> `Deadline)
  in
  match headers () with
  | `Too_large -> Headers_too_large
  | `Line -> Line_too_long
  | `Deadline -> Timed_out
  | `Eof -> Malformed
  | `Headers (raw, hdr_end) -> (
    let header_block = String.sub raw 0 hdr_end in
    match content_length_of header_block with
    | Some clen when clen > limits.max_body_bytes -> Body_too_large
    | Some clen when clen < 0 -> Malformed
    | clen_opt -> (
      let clen = Option.value ~default:0 clen_opt in
      let rec body () =
        if Buffer.length buf >= hdr_end + clen then
          `Body (String.sub (Buffer.contents buf) hdr_end clen)
        else
          match read_more () with
          | `Read -> body ()
          | `Eof -> `Eof
          | `Deadline -> `Deadline
      in
      match body () with
      | `Eof -> Malformed
      | `Deadline -> Timed_out
      | `Body body -> (
        match String.index_opt header_block '\n' with
        | None -> Malformed
        | Some eol -> (
          let line = String.trim (String.sub header_block 0 eol) in
          match String.split_on_char ' ' line with
          | meth :: target :: _ -> (
            let path, query =
              match String.index_opt target '?' with
              | None -> (target, [])
              | Some i ->
                ( String.sub target 0 i,
                  String.split_on_char '&'
                    (String.sub target (i + 1) (String.length target - i - 1))
                  |> List.filter_map (fun kv ->
                         match String.index_opt kv '=' with
                         | Some j ->
                           Some (String.sub kv 0 j, String.sub kv (j + 1) (String.length kv - j - 1))
                         | None -> if kv = "" then None else Some (kv, "")) )
            in
            Parsed { meth; path; query; body })
          | _ -> Malformed))))

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
      | Line_too_long | Headers_too_large ->
        Metrics.incr rejected_input;
        respond client ~head_only:false (text ~status:431 "request header fields too large\n")
      | Body_too_large ->
        Metrics.incr rejected_input;
        respond client ~head_only:false (text ~status:413 "request body too large\n")
      | Timed_out ->
        Metrics.incr rejected_input;
        respond client ~head_only:false (text ~status:408 "request read deadline exceeded\n")
      | Malformed -> respond client ~head_only:false (text ~status:400 "bad request\n")
      | Parsed { meth; path; query; body } -> (
        Metrics.incr requests;
        let fallthrough () =
          respond client ~head_only:(meth = "HEAD") (route ~ledger_file ~started_s meth path query)
        in
        match handler with
        | None -> fallthrough ()
        | Some h -> (
          match h { meth; path; query; req_body = body; client } with
          | Respond r -> respond client ~head_only:(meth = "HEAD") r
          | Deferred -> deferred := true
          | Pass -> fallthrough ())))

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
