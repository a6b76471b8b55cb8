(* Seeded request generation for the benchmark workloads.

   Everything here is a pure function of the seed, and the program under
   test only ever sees the bodies produced below.  The benchmark draws from
   its own splitmix64 stream rather than the program's [Rng], so a change
   to the program's generator cannot change what the benchmark sends. *)

(* ------------------------------ PRNG -------------------------------- *)

type rng = { mutable s : int64 }

let golden = 0x9E3779B97F4A7C15L

let next64 r =
  r.s <- Int64.add r.s golden;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* Independent substreams of one seed: the warm-up, the timed stream and
   the opt pools each draw from their own, so resizing one leaves the
   others byte-identical. *)
let stream ~seed k =
  let r = { s = Int64.(add (mul (of_int seed) 0x632BE59BD9B4E019L) (of_int (k * 7919))) } in
  ignore (next64 r);
  r

let float01 r = Int64.(to_float (shift_right_logical (next64 r) 11)) *. 0x1p-53
let int_below r n = Int64.(to_int (unsigned_rem (next64 r) (of_int n)))
let int_in r lo hi = lo + int_below r (hi - lo + 1)

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int_below r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A deck deals a fixed composition in a freshly shuffled order per block,
   so any prefix of the stream holds each kind in nearly its nominal share
   and two seeds differ in order, not in mix. *)
type 'a deck = { d_rng : rng; block : 'a array; mutable hand : 'a list }

let deck r block = { d_rng = r; block; hand = [] }

let deal d =
  (match d.hand with
  | [] -> d.hand <- Array.to_list (shuffle d.d_rng (Array.copy d.block))
  | _ -> ());
  match d.hand with
  | x :: rest ->
    d.hand <- rest;
    x
  | [] -> invalid_arg "Gen.deal: empty deck"

(* ----------------------------- bodies ------------------------------- *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Rationals go out in lowest terms, so distinct bodies are distinct
   instances: "2/2" and "1" would otherwise be two bodies for one key. *)
let rational a b =
  let g = gcd a b in
  if b / g = 1 then string_of_int (a / g) else Printf.sprintf "%d/%d" (a / g) (b / g)

(* capacities around the CLI default n/3: k/6 for k in (n, 3n] *)
let delta r n = rational (int_in r (n + 1) (3 * n)) 6
let rule r = if int_below r 2 = 0 then "threshold" else "oblivious"

(* The paper canaries ride in every serve key set. *)
let canary_opt3 = {|{"rule":"opt","n":3,"delta":"1"}|}
let canary_opt4 = {|{"rule":"opt","n":4,"delta":"4/3"}|}
let canary_obl4 = {|{"rule":"oblivious","n":4,"delta":"4/3","params":0.5}|}
let canaries = [| canary_opt3; canary_opt4; canary_obl4 |]

type shape = Threshold_exact | Oblivious_exact | Grid of bool | Mc of bool | Opt

let crash c = if c then {|,"crash":0.1|} else ""

(* Instance sizes per shape, as inclusive ranges. *)
type sizes = {
  threshold_n : int * int;
  oblivious_n : int * int;
  points : int * int;
  mc_n : int * int;
  kilo_samples : int * int;
  opt_n : int * int;
  opt_max_den : int;  (** opt deltas are a/b with b at most this *)
}

(* The cold mix's opt pools hold 7.6k, 10.6k and 13.7k deltas for n = 3, 4
   and 5, about forty times what a 40 s run draws here. *)
let cold_sizes =
  { threshold_n = (8, 11); oblivious_n = (8, 40); points = (24, 40); mc_n = (3, 8);
    kilo_samples = (50, 200); opt_n = (3, 5); opt_max_den = 100 }

(* serve-hot's keys are solved only during set-up: the same shapes at
   sizes that keep its set-up short. *)
let hot_sizes =
  { threshold_n = (3, 8); oblivious_n = (3, 40); points = (8, 16); mc_n = (3, 8);
    kilo_samples = (5, 20); opt_n = (3, 4); opt_max_den = 30 }

(* Sizes are dealt from one deck per dimension over its whole range, so
   every seed's stream holds nearly the same spread of instance sizes and
   runs differ in order, not in how much work they ask for. *)
type sizer = { s_rng : rng; decks : (string, int deck) Hashtbl.t }

let sizer r = { s_rng = r; decks = Hashtbl.create 8 }

let size s name (lo, hi) =
  let d =
    match Hashtbl.find_opt s.decks name with
    | Some d -> d
    | None ->
      let d = deck s.s_rng (Array.init (hi - lo + 1) (fun i -> lo + i)) in
      Hashtbl.replace s.decks name d;
      d
  in
  deal d

(* Every key a source makes is new by construction, so a stream of any
   length repeats none and keeps no record of what it sent.
   - Exact, grid and mc bodies carry a serial number in their first
     parameter, through a bijection of [0, first_values) onto the
     six-digit values of [0.2, 0.8).
   - Opt bodies have only delta free.  Their deltas are dealt without
     replacement from a shuffled pool per n: every a/b in lowest terms with
     b <= opt_max_den in [1/2, n), the canaries' own left out.  Drawn
     uniformly from a fixed pool, the cost of an opt request does not
     drift as a run draws more of them; a run that drains a pool fails. *)
let first_values = 600_000
let serial_stride = 7919 (* coprime to first_values *)

type source = {
  r : rng;
  sz : sizer;
  sizes : sizes;
  offset : int;
  mutable serial : int;
  pool_rng : rng;
  pools : (int, int array * int ref) Hashtbl.t;  (** n -> deltas a * 65536 + b, next *)
}

let source ~seed sizes =
  let r = stream ~seed 1 in
  { r; sz = sizer (stream ~seed 6); sizes; offset = int_below r first_values; serial = 0;
    pool_rng = stream ~seed 7; pools = Hashtbl.create 4 }

let opt_pool ~n ~max_den =
  let canary (a, b) = (n = 3 && a = 1 && b = 1) || (n = 4 && a = 4 && b = 3) in
  List.init max_den (fun i -> i + 1)
  |> List.concat_map (fun b ->
       List.init ((n * b) - ((b + 1) / 2)) (fun i -> ((b + 1) / 2) + i)
       |> List.filter (fun a -> gcd a b = 1 && not (canary (a, b)))
       |> List.map (fun a -> (a * 65536) + b))
  |> Array.of_list

let opt_delta u n =
  let pool, next =
    match Hashtbl.find_opt u.pools n with
    | Some p -> p
    | None ->
      let p = (shuffle u.pool_rng (opt_pool ~n ~max_den:u.sizes.opt_max_den), ref 0) in
      Hashtbl.replace u.pools n p;
      p
  in
  if !next >= Array.length pool then
    failwith
      (Printf.sprintf "Gen: the opt pool for n = %d ran dry after %d keys (raise opt_max_den)" n
         (Array.length pool));
  let v = pool.(!next) in
  incr next;
  rational (v / 65536) (v mod 65536)

let params u n =
  if u.serial >= first_values then failwith "Gen: more than 600000 non-opt keys in one stream";
  let first = ((serial_stride * u.serial) + u.offset) mod first_values in
  u.serial <- u.serial + 1;
  let rest = List.init (n - 1) (fun _ -> 0.2 +. (0.6 *. float01 u.r)) in
  "[" ^ String.concat "," (List.map (Printf.sprintf "%.6f") ((0.2 +. (1e-6 *. float_of_int first)) :: rest)) ^ "]"

let exact_body u ~rule ~n =
  let d = delta u.r n in
  Printf.sprintf {|{"rule":"%s","n":%d,"delta":"%s","params":%s}|} rule n d (params u n)

let shape_body u shape =
  let sz = u.sizes and r = u.r and size = size u.sz in
  match shape with
  | Threshold_exact -> exact_body u ~rule:"threshold" ~n:(size "threshold_n" sz.threshold_n)
  | Oblivious_exact -> exact_body u ~rule:"oblivious" ~n:(size "oblivious_n" sz.oblivious_n)
  | Grid c ->
    let rule = rule r in
    let d = delta r 3 in
    let ps = params u 3 in
    Printf.sprintf {|{"rule":"%s","n":3,"delta":"%s","params":%s,"mode":"grid","points":%d%s}|} rule d
      ps (size "points" sz.points) (crash c)
  | Mc c ->
    let rule = rule r in
    let n = size "mc_n" sz.mc_n in
    let d = delta r n in
    let ps = params u n in
    Printf.sprintf
      {|{"rule":"%s","n":%d,"delta":"%s","params":%s,"mode":"mc","samples":%d,"seed":%d%s}|} rule n d
      ps
      (1000 * size "kilo_samples" sz.kilo_samples)
      (int_in r 1 1_000_000) (crash c)
  | Opt ->
    let n = size "opt_n" sz.opt_n in
    Printf.sprintf {|{"rule":"opt","n":%d,"delta":"%s"}|} n (opt_delta u n)

(* One block of the cold mix: the five modes in equal shares, a quarter of
   the grid and mc requests with crash 0.1. *)
let cold_block =
  Array.concat
    [ Array.make 4 Threshold_exact; Array.make 4 Oblivious_exact; [| Grid true |];
      Array.make 3 (Grid false); [| Mc true |]; Array.make 3 (Mc false); Array.make 4 Opt ]

(* ---------------------------- workloads ----------------------------- *)

type workload = Serve_hot | Serve_cold_mix

let workloads = [ ("serve-hot", Serve_hot); ("serve-cold-mix", Serve_cold_mix) ]
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)
let workload_of_name s = List.assoc_opt s workloads

(* sized against `ddm serve`'s LRU cap of 256: the hot set fits it *)
let hot_keys = 200

(* A request is named by an id.  Ids below the size of [keys] name a body
   of that fixed table, which a stream may ask for again and again; every
   later id names a new body, which is sent once and not kept.  [replay]
   makes those again, from the seed, for the checks after a run. *)
type plan = {
  keys : string array;
  warmup : int array;  (** ids sent, in order, before every timed phase *)
  next : unit -> int * string;  (** the next timed request *)
}

(* serve-hot: 200 keys spanning every shape of the cold mix (the paper
   canaries among them), each solved once during set-up and then requested
   uniformly, so every timed request is an LRU hit. *)
let serve_hot ~seed =
  let u = source ~seed hot_sizes in
  let d = deck (stream ~seed 2) cold_block in
  let keys =
    Array.append canaries
      (Array.init (hot_keys - Array.length canaries) (fun _ -> shape_body u (deal d)))
  in
  let pick = stream ~seed 3 in
  { keys; warmup = Array.init hot_keys Fun.id;
    next =
      (fun () ->
        let id = int_below pick hot_keys in
        (id, keys.(id))) }

(* serve-cold-mix: the canaries warm the server, the same three for every
   seed so set-up time does not swing with the stream; every later key is
   new. *)
let serve_cold_mix ~seed =
  let u = source ~seed cold_sizes in
  let d = deck (stream ~seed 2) cold_block in
  let sent = ref 0 in
  { keys = canaries; warmup = [| 0; 1; 2 |];
    next =
      (fun () ->
        let id = Array.length canaries + !sent in
        incr sent;
        (id, shape_body u (deal d))) }

let plan w ~seed = match w with Serve_hot -> serve_hot ~seed | Serve_cold_mix -> serve_cold_mix ~seed

(* The body of every id among the first [count] timed requests of [w] at
   [seed], made again from the seed. *)
let replay w ~seed count =
  let p = plan w ~seed in
  let k = Array.length p.keys in
  let fresh = ref [] in
  for _ = 1 to count do
    let id, b = p.next () in
    if id >= k then fresh := b :: !fresh
  done;
  let fresh = Array.of_list (List.rev !fresh) in
  fun id -> if id < k then p.keys.(id) else fresh.(id - k)

(* The warm-up and the first [n] timed requests, as the bytes the program
   would receive — what the determinism tests compare. *)
let transcript w ~seed n =
  let p = plan w ~seed in
  let warm = Array.to_list (Array.map (fun id -> p.keys.(id)) p.warmup) in
  let timed = List.init n (fun _ -> snd (p.next ())) in
  String.concat "\n" (warm @ timed)

(* Cheap exact bodies for the traced run's census of the durable tier's
   hit path, which neither serve workload reaches. *)
let exact_bodies ~seed k =
  let u = source ~seed hot_sizes in
  List.init k (fun i ->
    if i mod 2 = 0 then shape_body u Threshold_exact else shape_body u Oblivious_exact)

(* `ddm eval` instances for the census of the closure sampler, which no
   serve workload runs: n 3..8, threshold and oblivious in turn; delta,
   samples and seed stay at the CLI defaults. *)
type cli_instance = { rule_t : [ `Threshold | `Oblivious ]; n : int; params : float array }

let cli_samples = 200_000
let cli_seed = 42

let cli_stream ~seed =
  let r = stream ~seed 1 in
  let kind =
    deck (stream ~seed 2)
      (Array.of_list
         (List.concat_map (fun rule_t -> List.init 6 (fun i -> (rule_t, 3 + i))) [ `Threshold; `Oblivious ]))
  in
  fun () ->
    let rule_t, n = deal kind in
    { rule_t; n; params = Array.init n (fun _ -> Float.round ((0.2 +. (0.6 *. float01 r)) *. 1e6) /. 1e6) }
