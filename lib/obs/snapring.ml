(* Periodic metrics-snapshot ring: a sampler domain wakes every [period_s],
   reads the scalar metrics (atomic counters, gauges) and appends a
   timestamped sample to a fixed-capacity ring.  The ring powers the
   /snapshot endpoint's recent history and the optional counter track in
   the Chrome trace export.  All ring access is mutex-guarded; samples are
   immutable once stored. *)

type sample = {
  t_s : float;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * (int * float)) list; (* name -> (count, sum) *)
}

type state = {
  ring : sample array; (* capacity slots; dummy-filled until written *)
  mutable next : int; (* insertion cursor *)
  mutable total : int; (* samples ever written; min(total, capacity) are live *)
}

(* A minute of history. *)
let capacity = 240
let period_s = 0.25
let dummy = { t_s = nan; counters = []; gauges = []; histograms = [] }
let mu = Mutex.create ()
let state = { ring = Array.make capacity dummy; next = 0; total = 0 }

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* One registry walk, projected onto the scalars: a histogram keeps only
   its (count, sum), so the ring never holds bucket arrays. *)
let sample_now () =
  let t_s = Unix.gettimeofday () in
  let counters, gauges, histograms =
    List.fold_right
      (fun { Metrics.name; value; _ } (cs, gs, hs) ->
        match value with
        | Metrics.Counter_v v -> ((name, v) :: cs, gs, hs)
        | Metrics.Gauge_v v -> (cs, (name, v) :: gs, hs)
        | Metrics.Histogram_v { count; sum; _ } -> (cs, gs, (name, (count, sum)) :: hs))
      (Metrics.snapshot ()) ([], [], [])
  in
  let s = { t_s; counters; gauges; histograms } in
  locked (fun () ->
    state.ring.(state.next) <- s;
    state.next <- (state.next + 1) mod capacity;
    state.total <- state.total + 1)

let samples () =
  locked (fun () ->
    let live = min state.total capacity in
    (* oldest first: the slot after the cursor is the oldest when full *)
    List.init live (fun i -> state.ring.((state.next - live + i + (2 * capacity)) mod capacity)))

(* ------------------------------ sampler ------------------------------ *)

let stop_flag = Atomic.make false
let sampler : unit Domain.t option ref = ref None

let running () = Option.is_some !sampler

let start () =
  if not (running ()) then begin
    Atomic.set stop_flag false;
    sample_now ();
    sampler :=
      Some
        (Domain.spawn (fun () ->
             while not (Atomic.get stop_flag) do
               (try Unix.sleepf period_s with Unix.Unix_error (Unix.EINTR, _, _) -> ());
               if not (Atomic.get stop_flag) then sample_now ()
             done))
  end

let stop () =
  match !sampler with
  | None -> ()
  | Some d ->
    Atomic.set stop_flag true;
    Domain.join d;
    sampler := None;
    (* one final sample so short runs still close with an up-to-date point *)
    sample_now ()
