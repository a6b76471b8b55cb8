type acc = { n : int; mean : float; m2 : float }

let empty = { n = 0; mean = 0.; m2 = 0. }

let add acc x =
  let n = acc.n + 1 in
  let delta = x -. acc.mean in
  let mean = acc.mean +. (delta /. float_of_int n) in
  let m2 = acc.m2 +. (delta *. (x -. mean)) in
  { n; mean; m2 }

let count acc = acc.n
let mean acc = acc.mean
let variance acc = if acc.n < 2 then 0. else acc.m2 /. float_of_int (acc.n - 1)
let stddev acc = sqrt (variance acc)

let stderr_of_mean acc =
  if acc.n = 0 then 0. else stddev acc /. sqrt (float_of_int acc.n)

let of_array a = Array.fold_left add empty a

(* Constructor for accumulators kept in flat (unboxed) form by batch
   kernels: Mc_kernel runs Welford over local float cells and rebuilds the
   acc once per chunk of work, so the result is bit-identical to feeding
   [add] the same samples in the same order. *)
let of_moments ~count ~mean ~m2 =
  if count < 0 then invalid_arg "Stats.of_moments: count must be >= 0";
  if count = 0 then empty else { n = count; mean; m2 }

(* Chan et al. pairwise combination: exact for the merged mean and M2 up to
   rounding, independent of how the samples were sharded.  Merging in a
   fixed order (the samplers merge in lease order) keeps the result bit-stable
   across worker counts. *)
let merge a b =
  if a.n = 0 then b
  else if b.n = 0 then a
  else begin
    let fa = float_of_int a.n and fb = float_of_int b.n in
    let n = a.n + b.n in
    let fn = fa +. fb in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. fb /. fn) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. fn) in
    { n; mean; m2 }
  end

let wilson_interval ?(z = 1.96) ~successes ~trials () =
  if trials <= 0 then invalid_arg "Stats.wilson_interval: trials";
  if successes < 0 || successes > trials then
    invalid_arg
      (Printf.sprintf "Stats.wilson_interval: successes = %d outside [0, trials = %d]" successes
         trials);
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. n) in
  let center = (p +. (z2 /. (2. *. n))) /. denom in
  let half = z /. denom *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n))) in
  (Float.max 0. (center -. half), Float.min 1. (center +. half))

type histogram = {
  lo : float;
  hi : float;
  counts : int array;
  mutable total : int;
  mutable outliers : int;
}

let histogram_empty ~bins ~lo ~hi =
  if bins <= 0 || hi <= lo then invalid_arg "Stats.histogram";
  { lo; hi; counts = Array.make bins 0; total = 0; outliers = 0 }

(* Out-of-range samples used to be clamped into the edge bins, silently
   inflating the edge densities; they now count as outliers instead.
   [x = hi] stays in the last bin so a closed range is representable.
   Non-finite samples must be tested explicitly: NaN fails both range
   comparisons, and before the [is_finite] guard it fell through to
   [int_of_float nan = 0], silently landing in bin 0. *)
let histogram_observe h x =
  h.total <- h.total + 1;
  if not (Float.is_finite x) || x < h.lo || x > h.hi then h.outliers <- h.outliers + 1
  else begin
    let bins = Array.length h.counts in
    let i = int_of_float (float_of_int bins *. (x -. h.lo) /. (h.hi -. h.lo)) in
    let i = if i < 0 then 0 else if i >= bins then bins - 1 else i in
    h.counts.(i) <- h.counts.(i) + 1
  end

let histogram ~bins ~lo ~hi samples =
  let h = histogram_empty ~bins ~lo ~hi in
  Array.iter (histogram_observe h) samples;
  h

let histogram_merge a b =
  if a.lo <> b.lo || a.hi <> b.hi || Array.length a.counts <> Array.length b.counts then
    invalid_arg "Stats.histogram_merge: shapes differ";
  {
    lo = a.lo;
    hi = a.hi;
    counts = Array.init (Array.length a.counts) (fun i -> a.counts.(i) + b.counts.(i));
    total = a.total + b.total;
    outliers = a.outliers + b.outliers;
  }

(* Mirror histogram_merge's shape check: a bad bin index gets an error
   naming the accessor and the valid range, not a bare
   "index out of bounds" from deep inside the array primitive. *)
let check_bin where h i =
  let bins = Array.length h.counts in
  if i < 0 || i >= bins then
    invalid_arg (Printf.sprintf "Stats.%s: bin %d outside [0, %d)" where i bins)

let histogram_density h i =
  check_bin "histogram_density" h i;
  let bins = Array.length h.counts in
  let bin_width = (h.hi -. h.lo) /. float_of_int bins in
  let in_range = h.total - h.outliers in
  if in_range = 0 then 0.
  else float_of_int h.counts.(i) /. (float_of_int in_range *. bin_width)

let bin_center h i =
  check_bin "bin_center" h i;
  let bins = Array.length h.counts in
  let bin_width = (h.hi -. h.lo) /. float_of_int bins in
  h.lo +. ((float_of_int i +. 0.5) *. bin_width)
