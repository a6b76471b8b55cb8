type span = {
  name : string;
  depth : int;
  tid : int; (* id of the domain the span completed on; survives absorb *)
  start_s : float;
  dur_s : float;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let on = ref false
let set_enabled b = on := b
let enabled () = !on
let now_s () = Unix.gettimeofday ()

(* Durations come from CLOCK_MONOTONIC (via bechamel's noalloc stub), so an
   NTP step between entry and exit cannot produce a negative or garbage
   duration; the epoch timestamp is kept only for [start_s]. *)
let now_mono_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let max_recorded = 10_000

(* Span storage is domain-local: each domain records into its own buffer so
   lease workers (Par_fold) can trace without synchronization.  A worker
   [drain]s its buffer before joining and the main domain [absorb]s the
   result into its own profile. *)
type buffer = {
  mutable recorded : span list; (* completion order, newest first *)
  mutable n_recorded : int;
  mutable n_dropped : int;
  mutable depth : int;
  mutable registered : bool; (* this buffer is on the live-read registry *)
}

(* Live registry of every domain's buffer, so the observability plane
   (Httpd's /snapshot, running on its own domain) can read spans mid-run
   without waiting for a join.  Registration is mutex-guarded; the reads in
   [live_spans] are deliberately unsynchronized — a racy load of [recorded]
   returns some previously-published cons cell (span fields are immutable,
   list cells are never mutated), so a live reader sees a consistent,
   possibly slightly stale, prefix of the history.  Exact totals are only
   guaranteed after the owning domain finishes (Domain.join publishes).
   [drain] unregisters so buffers of exited worker domains do not pile up:
   workers drain right before they join. *)
let registry_mu = Mutex.create ()
let registry : buffer list ref = ref []

let register_buffer b =
  if not b.registered then begin
    b.registered <- true;
    Mutex.lock registry_mu;
    registry := b :: !registry;
    Mutex.unlock registry_mu
  end

let unregister_buffer b =
  if b.registered then begin
    b.registered <- false;
    Mutex.lock registry_mu;
    registry := List.filter (fun b' -> b' != b) !registry;
    Mutex.unlock registry_mu
  end

let buffer_key =
  Domain.DLS.new_key (fun () ->
    let b = { recorded = []; n_recorded = 0; n_dropped = 0; depth = 0; registered = false } in
    register_buffer b;
    b)

let buffer () = Domain.DLS.get buffer_key

let clear () =
  let b = buffer () in
  b.recorded <- [];
  b.n_recorded <- 0;
  b.n_dropped <- 0;
  b.depth <- 0

let record s =
  let b = buffer () in
  register_buffer b;
  if b.n_recorded < max_recorded then begin
    b.recorded <- s :: b.recorded;
    b.n_recorded <- b.n_recorded + 1
  end
  else b.n_dropped <- b.n_dropped + 1

let drain () =
  let b = buffer () in
  let spans = b.recorded in
  b.recorded <- [];
  b.n_recorded <- 0;
  b.n_dropped <- 0;
  unregister_buffer b;
  spans

let live_spans () =
  Mutex.lock registry_mu;
  let buffers = !registry in
  Mutex.unlock registry_mu;
  List.concat_map (fun b -> List.rev b.recorded) buffers
  |> List.stable_sort (fun a b -> compare (a.start_s, a.depth) (b.start_s, b.depth))

let absorb spans = List.iter record (List.rev spans)

let with_span name f =
  if not !on then f ()
  else begin
    let b = buffer () in
    let d = b.depth in
    b.depth <- d + 1;
    let start_s = now_s () in
    let t0 = now_mono_s () in
    (* quick_stat.minor_words is only refreshed at minor collections, so a
       short span would read as allocation-free; Gc.minor_words reads the
       live minor-heap pointer and is accurate. *)
    let mw0 = Gc.minor_words () in
    let g0 = Gc.quick_stat () in
    Fun.protect
      ~finally:(fun () ->
        let dur_s = now_mono_s () -. t0 in
        let mw1 = Gc.minor_words () in
        let g1 = Gc.quick_stat () in
        b.depth <- b.depth - 1;
        record
          {
            name;
            depth = d;
            tid = (Domain.self () :> int);
            start_s;
            dur_s;
            minor_words = mw1 -. mw0;
            major_words = g1.Gc.major_words -. g0.Gc.major_words;
            minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
            major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
          })
      f
  end

(* Synthetic spans for intervals that no single [with_span] can cover —
   e.g. a serve request admitted on the Httpd domain and answered from a
   worker.  The caller supplies the wall-clock start and the (monotonic)
   duration; GC deltas are meaningless across domains and stay zero. *)
let emit ~name ~start_s ~dur_s () =
  if !on then
    record
      {
        name;
        depth = 0;
        tid = (Domain.self () :> int);
        start_s;
        dur_s = Float.max 0. dur_s;
        minor_words = 0.;
        major_words = 0.;
        minor_collections = 0;
        major_collections = 0;
      }

let spans () =
  List.stable_sort
    (fun a b -> compare (a.start_s, a.depth) (b.start_s, b.depth))
    (List.rev (buffer ()).recorded)

type profile_row = {
  p_name : string;
  calls : int;
  total_s : float;
  p_minor_words : float;
  p_major_words : float;
  p_minor_collections : int;
  p_major_collections : int;
}

(* Per-name totals over every recorded span.  Nested spans contribute to
   both their own name and every enclosing name (no self-time subtraction);
   none of the instrumented span names recurse today, so totals do not
   double-count within one name. *)
let profile_of spans =
  let agg = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let row =
        Option.value
          ~default:
            {
              p_name = s.name;
              calls = 0;
              total_s = 0.;
              p_minor_words = 0.;
              p_major_words = 0.;
              p_minor_collections = 0;
              p_major_collections = 0;
            }
          (Hashtbl.find_opt agg s.name)
      in
      Hashtbl.replace agg s.name
        {
          row with
          calls = row.calls + 1;
          total_s = row.total_s +. s.dur_s;
          p_minor_words = row.p_minor_words +. s.minor_words;
          p_major_words = row.p_major_words +. s.major_words;
          p_minor_collections = row.p_minor_collections + s.minor_collections;
          p_major_collections = row.p_major_collections + s.major_collections;
        })
    spans;
  Hashtbl.fold (fun _ row acc -> row :: acc) agg []
  |> List.sort (fun a b -> compare b.total_s a.total_s)

let profile () = profile_of (buffer ()).recorded

let pp_duration dur =
  if dur >= 1. then Printf.sprintf "%8.3f s " dur
  else if dur >= 1e-3 then Printf.sprintf "%8.3f ms" (dur *. 1e3)
  else Printf.sprintf "%8.3f us" (dur *. 1e6)

let pp_words w =
  if Float.abs w >= 1e9 then Printf.sprintf "%8.2fGw" (w /. 1e9)
  else if Float.abs w >= 1e6 then Printf.sprintf "%8.2fMw" (w /. 1e6)
  else if Float.abs w >= 1e3 then Printf.sprintf "%8.2fkw" (w /. 1e3)
  else Printf.sprintf "%8.0f w" w

let report () =
  let b = buffer () in
  let buf = Buffer.create 1024 in
  let all = spans () in
  let tree_cap = 100 in
  Buffer.add_string buf
    (Printf.sprintf "trace: %d span%s recorded%s\n" b.n_recorded
       (if b.n_recorded = 1 then "" else "s")
       (if b.n_dropped > 0 then Printf.sprintf " (%d dropped)" b.n_dropped else ""));
  List.iteri
    (fun i s ->
      if i < tree_cap then
        Buffer.add_string buf
          (Printf.sprintf "  %s  %s%s\n" (pp_duration s.dur_s) (String.make (2 * s.depth) ' ')
             s.name))
    all;
  if b.n_recorded > tree_cap then
    Buffer.add_string buf (Printf.sprintf "  ... (%d more)\n" (b.n_recorded - tree_cap));
  if all <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "  %-32s %8s %12s %12s %10s %10s %7s\n" "profile by name" "calls" "total"
         "mean" "minor" "major" "gc runs");
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "  %-32s %8d %s %s %s %s %7d\n" r.p_name r.calls
             (pp_duration r.total_s)
             (pp_duration (r.total_s /. float_of_int r.calls))
             (pp_words r.p_minor_words) (pp_words r.p_major_words)
             (r.p_minor_collections + r.p_major_collections)))
      (profile ())
  end;
  Buffer.contents buf
