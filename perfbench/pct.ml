(* Percentiles that refuse to extrapolate: a percentile is reported only
   when at least [min_beyond] samples lie beyond it, so a p99 over 500
   samples (five beyond) is refused instead of printed. *)

let min_beyond = 10

(* nearest rank, 1-based; the epsilon keeps 0.99 * 1000 at rank 990 *)
let rank n q = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)))

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let median_exn samples =
  let s = sorted samples in
  if Array.length s = 0 then invalid_arg "Pct.median_exn: no samples";
  s.((Array.length s - 1) / 2)

(* Latencies in log-spaced buckets 0.1% wide, from 1 us up to about
   1000 s: a fixed 166 KB however many ops a run records, so the
   benchmark's own bookkeeping adds a constant to the process's memory.
   A percentile is read from the bucket holding its rank, interpolated
   geometrically by rank inside it, so it is off by at most 0.1%. *)
type hist = { counts : int array; mutable n : int }

let lo = 1e-6
let log_ratio = log 1.001
let buckets = 1 + int_of_float (log 1e9 /. log_ratio)
let hist () = { counts = Array.make buckets 0; n = 0 }

let observe h v =
  let b = if v <= lo then 0 else min (buckets - 1) (int_of_float (log (v /. lo) /. log_ratio)) in
  h.counts.(b) <- h.counts.(b) + 1;
  h.n <- h.n + 1

let quantile h q =
  let k = rank h.n q in
  if h.n = 0 || h.n - k < min_beyond then None
  else begin
    let rec find b below =
      let c = h.counts.(b) in
      if below + c >= k then (b, below, c) else find (b + 1) (below + c)
    in
    let b, below, c = find 0 0 in
    let within = (float_of_int (k - below) -. 0.5) /. float_of_int c in
    Some (lo *. exp ((float_of_int b +. within) *. log_ratio))
  end

let max_observed h =
  let rec top b = if b < 0 then None else if h.counts.(b) > 0 then Some b else top (b - 1) in
  Option.map (fun b -> lo *. exp (float_of_int (b + 1) *. log_ratio)) (top (buckets - 1))
