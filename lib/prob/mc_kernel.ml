(* Batch Monte-Carlo kernel for the 2-bin load game.

   The per-sample closure path (Mc) pays one closure call, one
   inputs array, one decisions array and ~8 boxed Int64 intermediates per
   xoshiro draw for every play.  This kernel amortizes all of that:
   uniform draws are produced chunk-wise into structure-of-arrays Bigarray
   buffers by the alloc-free Rng fill stream, bin assignment reads the
   buffers with no per-play allocation, and the win / overflow / crash /
   Welford / histogram statistics are fused into one pass over each chunk.
   The crash tallies count draws the pass already makes, so a caller can
   keep per-event fault telemetry without a single extra draw.

   Determinism contract (docs/KERNEL.md): a kernel estimate is a pure
   function of (seed, samples, spec) — worker count never enters.
   [run] samples through Par_fold.sample, one split stream per lease as
   the closure path, and merges per-lease results in lease order, so
   [-j k] is bit-identical to [-j 1].  The kernel draws in a different order than the scalar path
   (inputs for a whole chunk first, then decision / fault draws), so
   kernel and scalar estimates agree statistically, not byte-for-byte;
   tests pin the agreement through Mc.agrees. *)

type rule =
  | Threshold of float array  (* player i picks bin 0 iff its input <= tau.(i) *)
  | Oblivious of float array  (* player i picks bin 0 with probability alpha.(i) *)

type fault = { crash_rate : float; crash_bin : int; noise : float; jitter : float }

type result = {
  samples : int;
  wins : int;
  over0 : int;
  over1 : int;
  crashes : int;
  crash_plays : int;
  loads : Stats.acc;
  hist : Stats.histogram option;
}

type t = { n : int; delta : float; rule : rule; fault : fault option; on_lease : result -> unit }

let check_rate what p =
  if not (Float.is_finite p && p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Mc_kernel.fault: %s = %h is not in [0,1]" what p)

let fault ?(crash_rate = 0.) ?(crash_bin = -1) ?(noise = 0.) ?(jitter = 0.) () =
  check_rate "crash_rate" crash_rate;
  check_rate "noise" noise;
  check_rate "jitter" jitter;
  if crash_bin < -1 || crash_bin > 1 then
    invalid_arg
      (Printf.sprintf "Mc_kernel.fault: crash_bin = %d (-1 drops the input, 0/1 reroute it)"
         crash_bin);
  { crash_rate; crash_bin; noise; jitter }

let fault_is_none f = f.crash_rate = 0. && f.noise = 0. && f.jitter = 0.

let make ?fault ?(on_lease = ignore) ~n ~delta rule =
  if n < 1 then invalid_arg "Mc_kernel.make: n must be >= 1";
  if not (delta > 0.) then invalid_arg "Mc_kernel.make: delta must be positive";
  (match rule with
  | Threshold a | Oblivious a ->
    if Array.length a <> n then
      invalid_arg
        (Printf.sprintf "Mc_kernel.make: rule carries %d parameters for n = %d players"
           (Array.length a) n);
    (* A non-finite parameter would decide every comparison the same way
       while the scalar engines raise (or sanitize) — refuse it here so
       the kernel can never silently diverge from the closure path. *)
    Array.iteri
      (fun i p ->
        if not (Float.is_finite p) then
          invalid_arg (Printf.sprintf "Mc_kernel.make: parameter %d is not finite (%h)" i p))
      a);
  (* A fault spec whose every dimension is off routes to the plain loops. *)
  let fault = match fault with Some f when fault_is_none f -> None | f -> f in
  { n; delta; rule; fault; on_lease }

let empty_result ?hist () =
  {
    samples = 0;
    wins = 0;
    over0 = 0;
    over1 = 0;
    crashes = 0;
    crash_plays = 0;
    loads = Stats.empty;
    hist = Option.map (fun (bins, lo, hi) -> Stats.histogram_empty ~bins ~lo ~hi) hist;
  }

(* Merging in lease order keeps run worker-count invariant: integer
   sums commute, Stats.merge / histogram_merge are evaluated left-to-right
   over the lease array. *)
let merge_result a b =
  {
    samples = a.samples + b.samples;
    wins = a.wins + b.wins;
    over0 = a.over0 + b.over0;
    over1 = a.over1 + b.over1;
    crashes = a.crashes + b.crashes;
    crash_plays = a.crash_plays + b.crash_plays;
    loads = Stats.merge a.loads b.loads;
    hist =
      (match (a.hist, b.hist) with
      | Some x, Some y -> Some (Stats.histogram_merge x y)
      | (Some _ as h), None | None, (Some _ as h) -> h
      | None, None -> None);
  }

(* Plays per chunk: 4096 * n doubles (192 KiB at n = 3) keeps the working
   set inside L2 while amortizing the fill-call overhead to nothing. *)
let chunk_plays = 4096

(* One lease's chunk buffers: the uniform inputs plus the decision /
   crash / noise / jitter draws its spec consumes (zero-length when
   unused), each sized for [cap] plays. *)
type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type buffers = { u : buffer; db : buffer; cb : buffer; nb : buffer; jb : buffer }

let the_fault t = match t.fault with Some f -> f | None -> fault ()
let oblivious t = match t.rule with Oblivious _ -> true | Threshold _ -> false

(* Noise perturbs the value a rule reads, never the load it contributes;
   oblivious rules read no value, so their noise draws are skipped (the
   distribution of outcomes is unchanged — see docs/KERNEL.md). *)
let noise_on t = (the_fault t).noise > 0. && not (oblivious t)

let alloc_buffers ~cap t =
  let n = t.n and f = the_fault t in
  let mk len = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout len in
  {
    u = mk (cap * n);
    db = (if oblivious t then mk (cap * n) else mk 0);
    cb = (if f.crash_rate > 0. then mk (cap * n) else mk 0);
    nb = (if noise_on t then mk (cap * n) else mk 0);
    jb = (if f.jitter > 0. then mk cap else mk 0);
  }

(* Plays one lease of [samples] plays through [b], whose buffers hold at
   least [min samples chunk_plays] plays: chunks are [min remaining
   chunk_plays] plays whatever the buffer size, so the draw order is a
   function of the lease's share alone. *)
let run_fill ?hist ~loads ~buffers:b ~fill ~samples t =
  let n = t.n in
  let delta = t.delta in
  let cap = if samples < chunk_plays then samples else chunk_plays in
  let u = b.u and db = b.db and cb = b.cb and nb = b.nb and jb = b.jb in
  let f = the_fault t in
  let crash_on = f.crash_rate > 0. in
  let jitter_on = f.jitter > 0. in
  let noise_on = noise_on t in
  let oblivious = oblivious t in
  let params = match t.rule with Threshold a | Oblivious a -> a in
  let hist = Option.map (fun (bins, lo, hi) -> Stats.histogram_empty ~bins ~lo ~hi) hist in
  let wins = ref 0 and over0 = ref 0 and over1 = ref 0 in
  let crashes = ref 0 and crash_plays = ref 0 in
  (* Welford state in local refs (ocamlopt unboxes non-escaping float
     refs); the count is kept as a float so every cell stays unboxed, and
     the update sequence matches Stats.add bit-for-bit (Stats.of_moments). *)
  let wn = ref 0. and wmean = ref 0. and wm2 = ref 0. in
  let remaining = ref samples in
  while !remaining > 0 do
    let m = if !remaining < cap then !remaining else cap in
    Rng.fill_float01 fill u ~pos:0 ~len:(m * n);
    if oblivious then Rng.fill_float01 fill db ~pos:0 ~len:(m * n);
    if crash_on then Rng.fill_float01 fill cb ~pos:0 ~len:(m * n);
    if noise_on then Rng.fill_float01 fill nb ~pos:0 ~len:(m * n);
    if jitter_on then Rng.fill_float01 fill jb ~pos:0 ~len:m;
    for p = 0 to m - 1 do
      let base = p * n in
      let l0 = ref 0. and l1 = ref 0. in
      if t.fault = None then
        (* Plain loops: no fault buffers to consult, so the whole play is
           [n] buffer reads and [n] compare-accumulate steps. *)
        if oblivious then
          for i = 0 to n - 1 do
            let x = Bigarray.Array1.unsafe_get u (base + i) in
            (* u2 < alpha matches Engine.run_once's coin for every alpha:
               alpha <= 0 never fires, alpha >= 1 always does (u2 < 1 is
               certain). *)
            if Bigarray.Array1.unsafe_get db (base + i) < Array.unsafe_get params i then
              l0 := !l0 +. x
            else l1 := !l1 +. x
          done
        else
          for i = 0 to n - 1 do
            let x = Bigarray.Array1.unsafe_get u (base + i) in
            if x <= Array.unsafe_get params i then l0 := !l0 +. x else l1 := !l1 +. x
          done
      else begin
        let crashed_before = !crashes in
        for i = 0 to n - 1 do
          let x = Bigarray.Array1.unsafe_get u (base + i) in
          if crash_on && Bigarray.Array1.unsafe_get cb (base + i) < f.crash_rate then begin
            (* Crashed player: its decision is the crash mode, its raw
               input still weighs on whichever bin receives it. *)
            incr crashes;
            if f.crash_bin = 0 then l0 := !l0 +. x
            else if f.crash_bin = 1 then l1 := !l1 +. x
          end
          else begin
            let x' =
              if noise_on then begin
                let e = f.noise *. ((2. *. Bigarray.Array1.unsafe_get nb (base + i)) -. 1.) in
                let v = x +. e in
                if v < 0. then 0. else if v > 1. then 1. else v
              end
              else x
            in
            let bin0 =
              if oblivious then Bigarray.Array1.unsafe_get db (base + i) < Array.unsafe_get params i
              else x' <= Array.unsafe_get params i
            in
            if bin0 then l0 := !l0 +. x else l1 := !l1 +. x
          end
        done;
        if !crashes > crashed_before then incr crash_plays
      end;
      let de =
        if jitter_on then
          delta *. (1. +. (f.jitter *. ((2. *. Bigarray.Array1.unsafe_get jb p) -. 1.)))
        else delta
      in
      let l0 = !l0 and l1 = !l1 in
      if l0 <= de && l1 <= de then incr wins;
      if l0 > de then incr over0;
      if l1 > de then incr over1;
      if loads || hist <> None then begin
        let mx = if l0 > l1 then l0 else l1 in
        if loads then begin
          wn := !wn +. 1.;
          let d = mx -. !wmean in
          wmean := !wmean +. (d /. !wn);
          wm2 := !wm2 +. (d *. (mx -. !wmean))
        end;
        match hist with Some h -> Stats.histogram_observe h mx | None -> ()
      end
    done;
    remaining := !remaining - m
  done;
  {
    samples;
    wins = !wins;
    over0 = !over0;
    over1 = !over1;
    crashes = !crashes;
    crash_plays = !crash_plays;
    loads = Stats.of_moments ~count:(int_of_float !wn) ~mean:!wmean ~m2:!wm2;
    hist;
  }

let run ?hist ?(loads = false) ?(domains = 1) ~rng ~samples t =
  (* Chunk buffers live for this call only: a lease takes a set off the
     free list (allocating one when every set is in use) and returns it,
     so a call allocates one set per worker rather than one per lease.
     A set fits the largest share, ceil (samples / leases). *)
  let cap = min ((samples + Par_fold.leases - 1) / Par_fold.leases) chunk_plays in
  let free = ref [] and mu = Mutex.create () in
  let take () =
    Mutex.protect mu (fun () ->
        match !free with
        | b :: rest ->
          free := rest;
          b
        | [] -> alloc_buffers ~cap t)
  in
  let give b = Mutex.protect mu (fun () -> free := b :: !free) in
  let parts =
    Par_fold.sample ~span:"mc.kernel.lease" ~domains ~rng ~samples (fun stream share ->
        if share = 0 then empty_result ?hist ()
        else begin
          let buffers = take () in
          let r = run_fill ?hist ~loads ~buffers ~fill:(Rng.fill_of stream) ~samples:share t in
          give buffers;
          (* on the worker, as the lease finishes: counters kept from it
             rise while a long run is still going *)
          t.on_lease r;
          r
        end)
  in
  Array.fold_left merge_result (empty_result ?hist ()) parts
