(* The traced run's layer accounting.  The benchmark replays a workload's
   requests in-process, in the order `ddm serve` admits them, and wraps
   every call into a layer's public function in its own [Trace.with_span]:
   on the replaying domain a ["request"] span at depth 0 holds the layer
   spans at depth 1; on the consumer domain, which stands in for a serve
   worker, layer spans sit at depth 0.  Deeper spans are the program's own
   and stay inside the layer that called them. *)

type layer = {
  mutable calls : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable work : float;  (** layer-specific volume, e.g. Monte-Carlo samples *)
  mutable durs : float array;
}

type table = { layers : (string, layer) Hashtbl.t; counters : (string, float) Hashtbl.t }

let create () = { layers = Hashtbl.create 32; counters = Hashtbl.create 16 }

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
    let l = { calls = 0; total_s = 0.; self_s = 0.; work = 0.; durs = Array.make 64 0. } in
    Hashtbl.replace t.layers name l;
    l

let add t name ?(work = 0.) ?self dur =
  let l = layer t name in
  if l.calls = Array.length l.durs then begin
    let grown = Array.make (2 * l.calls) 0. in
    Array.blit l.durs 0 grown 0 l.calls;
    l.durs <- grown
  end;
  l.durs.(l.calls) <- dur;
  l.calls <- l.calls + 1;
  l.total_s <- l.total_s +. dur;
  l.self_s <- l.self_s +. Option.value self ~default:dur;
  l.work <- l.work +. work

let count t name v =
  Hashtbl.replace t.counters name (v +. Option.value (Hashtbl.find_opt t.counters name) ~default:0.)

let counter t name = Option.value (Hashtbl.find_opt t.counters name) ~default:0.
let calls t name = match Hashtbl.find_opt t.layers name with Some l -> l.calls | None -> 0

let median_s t name =
  match Hashtbl.find_opt t.layers name with
  | Some l when l.calls > 0 -> Some (Pct.median_exn (Array.sub l.durs 0 l.calls))
  | _ -> None

let work_rate t name =
  match Hashtbl.find_opt t.layers name with
  | Some l when l.calls > 0 && l.total_s > 0. -> Some (l.work /. l.total_s)
  | _ -> None

let rows t =
  Hashtbl.fold (fun name l acc -> (name, l) :: acc) t.layers []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b.total_s a.total_s)

let span = Trace.with_span

(* The solver substrate a request's mode dispatches to. *)
let substrate (r : Solver.req) =
  match (r.Solver.rule, r.Solver.mode) with
  | Solver.Opt, _ -> "symbolic.opt"
  | Solver.Threshold, Solver.Exact -> "threshold.fold"
  | Solver.Oblivious, Solver.Exact -> "oblivious.closed_form"
  | _, Solver.Grid _ -> if r.Solver.crash > 0. then "fault_engine.grid" else "engine.grid"
  | _, Solver.Mc _ -> "mc_kernel"

let samples_of (r : Solver.req) =
  match r.Solver.mode with Solver.Mc { samples; _ } -> float_of_int samples | _ -> 0.

(* Bytes of one durable entry, from the format Cache_store documents:
   header line [ddm.cache/v1 <16 hex> <len>] then the payload and a
   newline. *)
let entry_bytes ~key value =
  let payload = Jsonx.to_string (Jsonx.Obj [ ("key", Jsonx.Str key); ("value", value) ]) in
  let len = String.length payload in
  String.length "ddm.cache/v1" + 1 + 16 + 1 + String.length (string_of_int len) + 1 + len + 1

let render a = ignore (Jsonx.to_string (Solver.answer_to_json a))

(* ------------------------ serve admission replay ----------------------- *)

type job = {
  req : Solver.req;
  key : string;
  pushed_mono : float;
  mu : Mutex.t;
  cv : Condition.t;
  mutable result : (Solver.answer option * Trace.span list) option;
      (** the answer, if the solve produced one, and the consumer's spans *)
}

type env = { lru : Solver.answer Lru.t; store : Cache_store.t; q : job Workq.t }

(* `ddm serve`'s default request budget *)
let budget_s = float_of_int Serve.default_config.Serve.default_budget_ms /. 1000.

(* The stand-in for a serve worker: pops as a worker does (Workq's own
   poll), then solves, renders and fills both cache tiers. *)
let rec consume env =
  match Workq.pop env.q ~timeout_s:0.05 with
  | Workq.Drained -> ()
  | Workq.Empty -> consume env
  | Workq.Job j ->
    let wait = Trace.now_mono_s () -. j.pushed_mono in
    Trace.emit ~name:"workq.handoff" ~start_s:(Trace.now_s () -. wait) ~dur_s:wait ();
    let answer =
      match
        span (substrate j.req) (fun () ->
          Solver.solve ~deadline_mono_s:(j.pushed_mono +. budget_s) j.req)
      with
      | a ->
        span "solver.render" (fun () -> render a);
        span "lru.put" (fun () -> Lru.put env.lru j.key a);
        let value = Solver.answer_to_json a in
        span "cache_store.put" (fun () -> Cache_store.put env.store ~key:j.key value);
        Some a
      | exception (Engine.Cancelled _ | Invalid_argument _) -> None
    in
    let spans = if Trace.enabled () then Trace.drain () else [] in
    Mutex.protect j.mu (fun () ->
      j.result <- Some (answer, spans);
      Condition.signal j.cv);
    consume env

(* Opens the store (timed as its own layer), starts the consumer, and
   stops it however [f] ends. *)
let with_env t ~dir f =
  (* spans earlier work left on this domain belong to no layer here *)
  ignore (Trace.drain ());
  let store = span "cache_store.open" (fun () -> fst (Cache_store.open_store ~dir)) in
  List.iter
    (fun (s : Trace.span) -> if s.Trace.name = "cache_store.open" then add t s.Trace.name s.Trace.dur_s)
    (Trace.drain ());
  let env =
    { lru = Lru.create ~cap:Serve.default_config.Serve.lru_cap; store;
      q = Workq.create ~depth:Serve.default_config.Serve.queue_depth }
  in
  let consumer = Domain.spawn (fun () -> consume env) in
  Fun.protect
    ~finally:(fun () ->
      Workq.close env.q;
      Domain.join consumer)
    (fun () -> f env)

let wait_for j =
  Mutex.protect j.mu (fun () ->
    let rec go () =
      match j.result with
      | Some r -> r
      | None ->
        Condition.wait j.cv j.mu;
        go ()
    in
    go ())

type outcome = Failed | Lru_hit | Disk_hit | Solved | Unanswered | Rejected

(* One request in Serve's admission order: parse, key, LRU, disk, and on
   a miss the queue handoff to the consumer.  While tracing, folds the
   request's spans into [t] and returns the seconds its layers account
   for; otherwise returns 0. *)
let request t env body =
  let solved = ref None in
  let outcome =
    span "request" (fun () ->
      match span "solver.parse" (fun () -> Solver.parse body) with
      | Error _ -> Failed
      | Ok r -> (
        let key = span "solver.cache_key" (fun () -> Solver.cache_key r) in
        match span "lru.find" (fun () -> Lru.find env.lru key) with
        | Some a ->
          span "solver.render" (fun () -> render a);
          Lru_hit
        | None -> (
          match span "cache_store.find" (fun () -> Cache_store.find env.store key) with
          | Some j -> (
            match Solver.answer_of_json j with
            | Ok a ->
              span "lru.put" (fun () -> Lru.put env.lru key a);
              span "solver.render" (fun () -> render a);
              Disk_hit
            | Error _ -> Failed)
          | None -> (
            let job =
              { req = r; key; pushed_mono = Trace.now_mono_s (); mu = Mutex.create ();
                cv = Condition.create (); result = None }
            in
            match span "workq.push" (fun () -> Workq.push env.q job) with
            | Workq.Accepted _ ->
              let answer, spans = wait_for job in
              solved := Some (r, key, answer, spans);
              if Option.is_some answer then Solved else Unanswered
            | Workq.Shed | Workq.Closed -> Rejected))))
  in
  if not (Trace.enabled ()) then 0.
  else begin
    let main = Trace.drain () in
    let c b name = if b then count t name 1. in
    let queued = outcome = Solved || outcome = Unanswered in
    c (outcome <> Failed) "lru.lookups";
    c (outcome = Lru_hit) "lru.hits";
    c (outcome = Disk_hit || queued || outcome = Rejected) "cache_store.lookups";
    c (outcome = Disk_hit) "cache_store.hits";
    c (queued || outcome = Rejected) "workq.pushes";
    c queued "workq.accepted";
    c queued "solver.started";
    c (outcome = Solved) "solver.answered";
    let layer_s = ref 0. in
    let take ?(work = 0.) (s : Trace.span) =
      (* a disk hit re-reads, checksums and parses the entry; a miss is an
         index probe, so the two are kept apart *)
      let name =
        if s.Trace.name = "cache_store.find" && outcome = Disk_hit then "cache_store.find_hit"
        else s.Trace.name
      in
      add t name ~work s.Trace.dur_s;
      layer_s := !layer_s +. s.Trace.dur_s
    in
    List.iter (fun (s : Trace.span) -> if s.Trace.depth = 1 then take s) main;
    (match !solved with
    | None -> ()
    | Some (r, key, answer, spans) ->
      List.iter
        (fun (s : Trace.span) ->
          if s.Trace.depth = 0 then
            take ~work:(if s.Trace.name = substrate r then samples_of r else 0.) s)
        spans;
      (* entry sizes are bookkeeping, computed outside every timed span *)
      Option.iter
        (fun a ->
          count t "cache_store.bytes" (float_of_int (entry_bytes ~key (Solver.answer_to_json a))))
        answer);
    List.iter
      (fun (s : Trace.span) ->
        if s.Trace.depth = 0 && s.Trace.name = "request" then
          add t "request" ~self:(Float.max 0. (s.Trace.dur_s -. !layer_s)) s.Trace.dur_s)
      main;
    !layer_s
  end

(* ----------------------------- cli replay ------------------------------ *)

(* One `ddm eval` at its defaults: delta n/3, the exact Theorem 5.1 / 4.1
   value, then 200 000 closure Monte-Carlo plays at seed 42 on one domain. *)
let cli_eval (i : Gen.cli_instance) =
  let delta = Rat.to_float (Rat.of_ints i.Gen.n 3) in
  let exact, rule =
    match i.Gen.rule_t with
    | `Threshold ->
      ( span "threshold.fold" (fun () -> Threshold.winning_probability ~delta i.Gen.params),
        Model.Single_threshold i.Gen.params )
    | `Oblivious ->
      ( span "oblivious.closed_form" (fun () -> Oblivious.winning_probability ~delta i.Gen.params),
        Model.Oblivious i.Gen.params )
  in
  let rng = Rng.create ~seed:Gen.cli_seed in
  let inst = Model.instance ~n:i.Gen.n ~delta in
  let est =
    span "mc.closure" (fun () ->
      Mc_eval.winning_probability ~rng ~samples:Gen.cli_samples inst rule)
  in
  (exact, est)

let cli_request t i =
  let r = span "request" (fun () -> cli_eval i) in
  if Trace.enabled () then begin
    let spans = Trace.drain () in
    let layer_s = ref 0. in
    List.iter
      (fun (s : Trace.span) ->
        if s.Trace.depth = 1 then begin
          let work = if s.Trace.name = "mc.closure" then float_of_int Gen.cli_samples else 0. in
          add t s.Trace.name ~work s.Trace.dur_s;
          layer_s := !layer_s +. s.Trace.dur_s
        end)
      spans;
    List.iter
      (fun (s : Trace.span) ->
        if s.Trace.depth = 0 && s.Trace.name = "request" then
          add t "request" ~self:(Float.max 0. (s.Trace.dur_s -. !layer_s)) s.Trace.dur_s)
      spans
  end;
  r

(* A substrate measured outside its workload's stream: solve [body] under
   the span of the substrate it dispatches to. *)
let solve_traced t body =
  match Solver.parse body with
  | Error _ -> ()
  | Ok r ->
    let _ =
      span "request" (fun () ->
        span (substrate r) (fun () ->
          try Some (Solver.solve ~deadline_mono_s:infinity r) with Engine.Cancelled _ -> None))
    in
    List.iter
      (fun (s : Trace.span) ->
        if s.Trace.depth = 1 then add t s.Trace.name ~work:(samples_of r) s.Trace.dur_s)
      (Trace.drain ())
