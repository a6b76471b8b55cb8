(* Closed-loop HTTP load from a single thread.  At most [in_flight]
   connections are open at once; each request opens a fresh connection
   (the server closes after every response) and carries its own timeout.
   Latency runs from the connect call to the last response byte. *)

type result = {
  id : int;
  status : int;  (** 0 when no HTTP response arrived: refused, reset, timed out *)
  body : string;
  latency_s : float;
}

type conn = {
  cid : int;
  fd : Unix.file_descr;
  req : Bytes.t;
  mutable sent : int;
  mutable connected : bool;
  buf : Buffer.t;
  t0 : float;
  deadline : float;
}

let request_string ~meth ~path body =
  Printf.sprintf
    "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    meth path (String.length body) body

let parse_response s =
  let n = String.length s in
  let status =
    if n >= 12 && String.sub s 0 5 = "HTTP/" then
      Option.value (int_of_string_opt (String.sub s 9 3)) ~default:0
    else 0
  in
  let rec body_at i =
    if i + 4 > n then n
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then i + 4
    else body_at (i + 1)
  in
  let b = body_at 0 in
  (status, String.sub s b (n - b))

let chunk = Bytes.create 65536

(* [next ()] names the next request, or [None] once the caller has no
   more to send (in a timed phase: once its window has closed); the loop
   returns when nothing is left in flight. *)
let run ~port ~in_flight ~timeout_s ~next ~on_result =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let active = ref [] in
  let exhausted = ref false in
  let finish c ~status ~body =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    active := List.filter (fun c' -> c' != c) !active;
    on_result { id = c.cid; status; body; latency_s = Trace.now_mono_s () -. c.t0 }
  in
  let fail c = finish c ~status:0 ~body:"" in
  let start (id, (meth, path, body)) =
    let t0 = Trace.now_mono_s () in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    let c =
      {
        cid = id;
        fd;
        req = Bytes.of_string (request_string ~meth ~path body);
        sent = 0;
        connected = false;
        buf = Buffer.create 512;
        t0;
        deadline = t0 +. timeout_s;
      }
    in
    active := c :: !active;
    match Unix.connect fd addr with
    | () -> c.connected <- true
    | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> fail c
  in
  let on_writable c =
    if not c.connected then begin
      match Unix.getsockopt_error c.fd with
      | None -> c.connected <- true
      | Some _ -> fail c
    end;
    if c.connected && List.memq c !active then
      match Unix.single_write c.fd c.req c.sent (Bytes.length c.req - c.sent) with
      | k -> c.sent <- c.sent + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> fail c
  in
  let on_readable c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 ->
      let status, body = parse_response (Buffer.contents c.buf) in
      finish c ~status ~body
    | k -> Buffer.add_subbytes c.buf chunk 0 k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> fail c
  in
  let rec loop () =
    while (not !exhausted) && List.length !active < in_flight do
      match next () with None -> exhausted := true | Some r -> start r
    done;
    if !active <> [] then begin
      let now = Trace.now_mono_s () in
      List.iter (fun c -> if now >= c.deadline then fail c) !active;
      let writing c = (not c.connected) || c.sent < Bytes.length c.req in
      let ws = List.filter writing !active and rs = List.filter (fun c -> not (writing c)) !active in
      let wait =
        List.fold_left (fun acc c -> Float.min acc (c.deadline -. now)) 1.0 !active |> Float.max 0.
      in
      let fd_of c = c.fd in
      let r, w, _ =
        try Unix.select (List.map fd_of rs) (List.map fd_of ws) [] wait
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter (fun c -> if List.memq c !active && List.mem c.fd w then on_writable c) ws;
      List.iter (fun c -> if List.memq c !active && List.mem c.fd r then on_readable c) rs;
      loop ()
    end
  in
  loop ()

(* One request, e.g. a [GET /stats] or a [/healthz] probe. *)
let once ~port ~timeout_s ?(meth = "GET") ?(body = "") path =
  let out = ref None in
  let pending = ref (Some (0, (meth, path, body))) in
  run ~port ~in_flight:1 ~timeout_s
    ~next:(fun () ->
      let r = !pending in
      pending := None;
      r)
    ~on_result:(fun r -> out := Some r);
  Option.get !out
