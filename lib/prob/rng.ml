(* xoshiro256++ (Blackman & Vigna), seeded via splitmix64. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next_int64 t =
  let open Int64 in
  let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  (* Re-expand one parent output through splitmix64, exactly as [create]
     expands its integer seed; the child stream is decorrelated from the
     parent's continuation by the full splitmix64 mixing. *)
  let state = ref (next_int64 t) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let float01 t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let uniform t a b = a +. ((b -. a) *. float01 t)

let int_below t n =
  if n <= 0 then invalid_arg "Rng.int_below";
  (* Rejection sampling over the top 62 bits to avoid modulo bias. *)
  let mask_bits = 62 in
  let bound = 1 lsl (mask_bits - 1) in
  if n > bound then invalid_arg "Rng.int_below: n too large";
  let limit = bound - (bound mod n) in
  let rec go () =
    let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) (64 - (mask_bits - 1))) in
    if v < limit then v mod n else go ()
  in
  go ()

let bool t = Int64.logand (next_int64 t) 1L = 1L
let bernoulli t p = float01 t < p

(* {2 Batch fill streams}

   Without flambda, every [Int64] intermediate above is boxed, so the
   xoshiro path costs ~8 minor allocations per draw — acceptable for
   per-sample consumers, fatal for a batch kernel.  A [fill] is a
   splitmix-style counter generator over OCaml's native 63-bit [int]
   (alloc-free), seeded from two parent xoshiro draws.  It is a pure
   function of the parent stream's state at [fill_of] time, so the
   determinism contract is unchanged: same seed => same fill
   output, independent of worker count.  The fill stream is NOT the
   xoshiro stream — kernel consumers are pinned to the scalar path
   statistically, not bit-for-bit (see docs/KERNEL.md). *)

type fill = { mutable fs : int; fgamma : int }

let fill_of t =
  let s = Int64.to_int (next_int64 t) land max_int in
  (* An odd gamma makes the counter increment a unit mod 2^63, so the
     state walks the full period before repeating. *)
  let g = Int64.to_int (next_int64 t) land max_int lor 1 in
  { fs = s; fgamma = g }

(* splitmix64's xor-shift-multiply finalizer, truncated to the 62
   non-negative bits of a native int ([max_int] = 2^62 - 1): the
   multiplicative constants are restrictions of Steele et al.'s originals
   (top bits dropped), which keeps the arithmetic in immediate ints.
   Empirically this still passes the moment/uniformity tests in test_prob;
   it only has to decorrelate a counter, not survive BigCrush. *)
let[@inline] fill_mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land max_int in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land max_int in
  z lxor (z lsr 31)

let fill_float f =
  let s = (f.fs + f.fgamma) land max_int in
  f.fs <- s;
  let z = fill_mix s in
  (* Top 53 of the 62 mixed bits ([max_int] = 2^62 - 1), same
     mantissa-width convention as [float01]. *)
  float_of_int (z lsr 9) *. 0x1.0p-53

let fill_float01 f (buf : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t)
    ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim buf then
    invalid_arg "Rng.fill_float01: range outside buffer";
  (* Hoist the mutable state into locals so the loop runs on registers;
     the record is written back once. *)
  let s = ref f.fs in
  let g = f.fgamma in
  for i = pos to pos + len - 1 do
    let s' = (!s + g) land max_int in
    s := s';
    let z = fill_mix s' in
    Bigarray.Array1.unsafe_set buf i (float_of_int (z lsr 9) *. 0x1.0p-53)
  done;
  f.fs <- !s
