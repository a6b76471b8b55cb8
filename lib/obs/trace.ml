type span = {
  name : string;
  depth : int;
  tid : int; (* id of the domain the span completed on; survives absorb *)
  start_s : float;
  dur_s : float;
  minor_words : float;
  major_words : float;
}

let on = ref false
let set_enabled b = on := b
let enabled () = !on
let now_s () = Unix.gettimeofday ()

(* Durations come from CLOCK_MONOTONIC (via bechamel's noalloc stub), so an
   NTP step between entry and exit cannot produce a negative or garbage
   duration; the epoch timestamp is kept only for [start_s]. *)
let now_mono_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The calling domain's major-heap allocation count, in words; see
   trace_stubs.c for why Gc.counters is not read instead. *)
external major_words : unit -> (int[@untagged])
  = "ddm_trace_major_words" "ddm_trace_major_words_untagged"
[@@noalloc]

let max_recorded = 10_000

(* Span storage is domain-local: each domain records into its own buffer so
   lease workers (Par_fold) can trace without synchronization.  A worker
   [drain]s its buffer before joining and the main domain [absorb]s the
   result into its own profile. *)
type buffer = {
  mutable recorded : span list; (* completion order, newest first *)
  mutable n_recorded : int;
  mutable n_dropped : int;
  mutable totals : (string * float array) list;
      (* per name, every span recorded, past the cap too: calls, seconds,
         minor words, major words *)
  mutable depth : int;
  mutable registered : bool; (* this buffer is on the registry [spans] reads *)
}

(* Registry of every domain's buffer: [spans] reads them all, so a CLI
   report, serve's trace export and the observability plane (Httpd's
   /snapshot, running on its own domain, mid-run, without waiting for a
   join) read spans one way.  Registration is mutex-guarded; the reads in
   [spans] are deliberately unsynchronized — a racy load of [recorded]
   returns some previously-published cons cell (span fields are immutable,
   list cells are never mutated), so a live reader sees a consistent,
   possibly slightly stale, prefix of the history.  Exact totals are only
   guaranteed after the owning domain finishes (Domain.join publishes).
   [drain] unregisters so buffers of exited worker domains do not pile up
   and their absorbed spans are not read twice: workers drain right before
   they join. *)
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
    let b =
      { recorded = []; n_recorded = 0; n_dropped = 0; totals = []; depth = 0; registered = false }
    in
    register_buffer b;
    b)

let buffer () = Domain.DLS.get buffer_key
let registered () = Mutex.protect registry_mu (fun () -> !registry)

(* An existing name's cells are updated in place, allocating nothing; a new
   name is consed on the front, so a reader on another domain always sees
   a well-formed list. *)
let add_totals b s =
  let cells =
    try List.assoc s.name b.totals
    with Not_found ->
      let fresh = Array.make 4 0. in
      b.totals <- (s.name, fresh) :: b.totals;
      fresh
  in
  cells.(0) <- cells.(0) +. 1.;
  cells.(1) <- cells.(1) +. s.dur_s;
  cells.(2) <- cells.(2) +. s.minor_words;
  cells.(3) <- cells.(3) +. s.major_words

let record s =
  let b = buffer () in
  register_buffer b;
  add_totals b s;
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
  b.totals <- [];
  unregister_buffer b;
  spans

let spans () =
  List.concat_map (fun b -> List.rev b.recorded) (registered ())
  |> List.stable_sort (fun a b -> compare (a.start_s, a.depth) (b.start_s, b.depth))

let absorb spans = List.iter record (List.rev spans)

let with_span name f =
  if not !on then f ()
  else begin
    let b = buffer () in
    let d = b.depth in
    b.depth <- d + 1;
    (* The allocation counters are read outside the timed interval, so a
       span's duration holds only its own work.  Gc.minor_words reads the
       live minor-heap pointer, so a short span's minor words are exact;
       the GC's other minor counts catch up only at a minor collection. *)
    let maj0 = major_words () in
    let mw0 = Gc.minor_words () in
    let start_s = now_s () in
    let t0 = now_mono_s () in
    Fun.protect
      ~finally:(fun () ->
        let dur_s = now_mono_s () -. t0 in
        let mw1 = Gc.minor_words () in
        let maj1 = major_words () in
        b.depth <- b.depth - 1;
        record
          {
            name;
            depth = d;
            tid = (Domain.self () :> int);
            start_s;
            dur_s;
            minor_words = mw1 -. mw0;
            major_words = float_of_int (maj1 - maj0);
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
      }

type profile_row = {
  p_name : string;
  calls : int;
  total_s : float;
  p_minor_words : float;
  p_major_words : float;
}

(* Merges the registered domains' per-name totals.  Nested spans
   contribute to both their own name and every enclosing name (no
   self-time subtraction); none of the instrumented span names recurse
   today, so totals do not double-count within one name. *)
let profile () =
  let agg = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun (name, cells) ->
          match Hashtbl.find_opt agg name with
          | Some sum -> Array.iteri (fun i v -> sum.(i) <- sum.(i) +. v) cells
          | None -> Hashtbl.add agg name (Array.copy cells))
        b.totals)
    (registered ());
  Hashtbl.fold
    (fun p_name c acc ->
      { p_name; calls = int_of_float c.(0); total_s = c.(1); p_minor_words = c.(2);
        p_major_words = c.(3) }
      :: acc)
    agg []
  |> List.sort (fun a b -> compare b.total_s a.total_s)

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
  let buf = Buffer.create 1024 in
  let all = spans () in
  let n = List.length all in
  let dropped = List.fold_left (fun acc b -> acc + b.n_dropped) 0 (registered ()) in
  let tree_cap = 100 in
  Buffer.add_string buf
    (Printf.sprintf "trace: %d span%s recorded%s\n" n
       (if n = 1 then "" else "s")
       (if dropped > 0 then Printf.sprintf " (%d dropped)" dropped else ""));
  List.iteri
    (fun i s ->
      if i < tree_cap then
        Buffer.add_string buf
          (Printf.sprintf "  %s  %s%s\n" (pp_duration s.dur_s) (String.make (2 * s.depth) ' ')
             s.name))
    all;
  if n > tree_cap then Buffer.add_string buf (Printf.sprintf "  ... (%d more)\n" (n - tree_cap));
  if all <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "  %-32s %8s %12s %12s %10s %10s\n" "profile by name" "calls" "total"
         "mean" "minor" "major");
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "  %-32s %8d %s %s %s %s\n" r.p_name r.calls
             (pp_duration r.total_s)
             (pp_duration (r.total_s /. float_of_int r.calls))
             (pp_words r.p_minor_words) (pp_words r.p_major_words)))
      (profile ())
  end;
  Buffer.contents buf
