(* Process-global metrics registry.  Counters, gauges and histograms are
   mutable records found-or-created once at module-init time; every update
   is gated on the single [on] flag so the disabled path is one
   load-and-branch with no allocation.

   Every metric kind is domain-safe: counter cells are atomic ints,
   gauges are atomic float cells, and histograms keep their per-bucket
   tallies in an array of atomic ints with the running sum maintained by
   compare-and-swap — so instrumented code may update from any domain
   (Monte-Carlo workers, serve solver workers, the watchdog) without
   losing or tearing an observation.

   Float atomics use a one-field ref behind the Atomic and swap the whole
   ref: [Atomic.compare_and_set] compares physically, and a raw
   [float Atomic.t] would risk the compiler reboxing the compare witness
   between the read and the CAS (boxed floats have no stable identity
   guarantee); a ref allocated by us does not move.

   The registry table itself is guarded by a mutex: the live observability
   plane (Httpd, Snapring) snapshots from its own domains, and an unguarded
   Hashtbl.fold racing a registration-triggered resize could crash.  Only
   registration and snapshotting take the lock — the update hot path never
   touches the table, it holds the metric cell directly. *)

module Afloat = struct
  type t = float ref Atomic.t

  let make v = Atomic.make (ref v)
  let get (t : t) = !(Atomic.get t)
  let set (t : t) v = Atomic.set t (ref v)

  let rec add (t : t) v =
    let cur = Atomic.get t in
    if not (Atomic.compare_and_set t cur (ref (!cur +. v))) then add t v
end

type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; g_value : Afloat.t }

type histogram = {
  h_name : string;
  bounds : float array; (* strictly increasing upper bounds *)
  counts : int Atomic.t array; (* length bounds + 1; last slot is the +Inf overflow *)
  h_sum : Afloat.t;
}

type metric = C of counter | G of gauge | H of histogram
type registered = { metric : metric; help : string }

let on = ref false
let set_enabled b = on := b
let enabled () = !on

let registry : (string, registered) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()

let locked f =
  Mutex.lock registry_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mu) f

let register name help metric =
  Hashtbl.add registry name { metric; help };
  metric

let kind_mismatch name =
  invalid_arg (Printf.sprintf "Metrics: %S is already registered with a different kind" name)

let counter ?(help = "") name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some { metric = C c; _ } -> c
  | Some _ -> kind_mismatch name
  | None -> (
    match register name help (C { c_name = name; c_value = Atomic.make 0 }) with
    | C c -> c
    | _ -> assert false)

let gauge ?(help = "") name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some { metric = G g; _ } -> g
  | Some _ -> kind_mismatch name
  | None -> (
    match register name help (G { g_name = name; g_value = Afloat.make 0. }) with
    | G g -> g
    | _ -> assert false)

let check_bounds name bounds =
  let k = Array.length bounds in
  if k = 0 then invalid_arg (Printf.sprintf "Metrics.histogram %S: empty bounds" name);
  for i = 1 to k - 1 do
    if not (bounds.(i) > bounds.(i - 1)) then
      invalid_arg (Printf.sprintf "Metrics.histogram %S: bounds must be strictly increasing" name)
  done

let histogram ?(help = "") ~buckets name =
  locked @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some { metric = H h; _ } ->
    if h.bounds <> buckets then
      invalid_arg (Printf.sprintf "Metrics.histogram %S: bounds differ from registration" name);
    h
  | Some _ -> kind_mismatch name
  | None -> (
    check_bounds name buckets;
    let h =
      {
        h_name = name;
        bounds = Array.copy buckets;
        counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
        h_sum = Afloat.make 0.;
      }
    in
    match register name help (H h) with H h -> h | _ -> assert false)

let exponential_buckets ~start ~factor ~count =
  if not (start > 0. && Float.is_finite start) then
    invalid_arg "Metrics.exponential_buckets: start must be positive";
  if not (factor > 1. && Float.is_finite factor) then
    invalid_arg "Metrics.exponential_buckets: factor must be > 1";
  if count < 1 then invalid_arg "Metrics.exponential_buckets: count must be >= 1";
  Array.init count (fun i -> start *. (factor ** float_of_int i))

let incr c = if !on then Atomic.incr c.c_value

let add c k =
  if !on then begin
    if k < 0 then invalid_arg (Printf.sprintf "Metrics.add %S: negative increment" c.c_name);
    ignore (Atomic.fetch_and_add c.c_value k)
  end

let set g v = if !on then Afloat.set g.g_value v
let add_gauge g v = if !on then Afloat.add g.g_value v

let observe h v =
  if !on then begin
    let k = Array.length h.bounds in
    let i = ref 0 in
    while !i < k && v > h.bounds.(!i) do
      Stdlib.incr i
    done;
    Atomic.incr h.counts.(!i);
    Afloat.add h.h_sum v
  end

let counter_value c = Atomic.get c.c_value
let gauge_value g = Afloat.get g.g_value

(* The copy is the snapshot: its total IS the count, so a reader's
   cumulative +Inf bucket always equals the count it reports, even while
   writers race (an in-flight [observe] is either wholly before or wholly
   after the per-bucket loads it straddles — per bucket, never torn). *)
let histogram_counts h = Array.map Atomic.get h.counts
let histogram_sum h = Afloat.get h.h_sum
let histogram_count h = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.counts

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { bounds : float array; counts : int array; sum : float; count : int }

type sample = { name : string; help : string; value : value }

let sample_of name { metric; help } =
  let value =
    match metric with
    | C c -> Counter_v (Atomic.get c.c_value)
    | G g -> Gauge_v (Afloat.get g.g_value)
    | H h ->
      let counts = histogram_counts h in
      Histogram_v
        {
          bounds = Array.copy h.bounds;
          counts;
          sum = Afloat.get h.h_sum;
          count = Array.fold_left ( + ) 0 counts;
        }
  in
  { name; help; value }

let snapshot () =
  locked (fun () -> Hashtbl.fold (fun name r acc -> sample_of name r :: acc) registry [])
  |> List.sort (fun a b -> compare a.name b.name)

let find name = locked @@ fun () -> Option.map (sample_of name) (Hashtbl.find_opt registry name)

let reset () =
  locked @@ fun () ->
  Hashtbl.iter
    (fun _ { metric; _ } ->
      match metric with
      | C c -> Atomic.set c.c_value 0
      | G g -> Afloat.set g.g_value 0.
      | H h ->
        Array.iter (fun c -> Atomic.set c 0) h.counts;
        Afloat.set h.h_sum 0.)
    registry
