(* Tests for the benchmark's own parts: seeded generation, key-set
   sizing, the output checker and the percentile helper. *)

open Perfbench

let workloads = List.map snd Gen.workloads
let lru_cap = Serve.default_config.Serve.lru_cap

let key_of body =
  match Solver.parse body with
  | Ok r -> Solver.cache_key r
  | Error e -> Alcotest.failf "generated body %s rejected: %s" body e

let test_same_seed_same_stream () =
  List.iter
    (fun w ->
      let a = Gen.transcript w ~seed:7 300 and b = Gen.transcript w ~seed:7 300 in
      Alcotest.(check string) (Gen.workload_name w ^ ": byte-identical") a b)
    workloads

let test_other_seed_other_stream () =
  List.iter
    (fun w ->
      let a = Gen.transcript w ~seed:7 300 and b = Gen.transcript w ~seed:8 300 in
      Alcotest.(check bool) (Gen.workload_name w ^ ": seeds differ") true (a <> b))
    workloads

let distinct_keys bodies =
  let h = Hashtbl.create 4096 in
  List.iter (fun b -> Hashtbl.replace h (key_of b) ()) bodies;
  Hashtbl.length h

let test_hot_fits_lru () =
  let p = Gen.plan Gen.Serve_hot ~seed:3 in
  Alcotest.(check int) "distinct hot keys" Gen.hot_keys (distinct_keys (Array.to_list p.Gen.keys));
  Alcotest.(check bool) "hot key set fits the LRU" true (Gen.hot_keys <= lru_cap);
  for _ = 1 to 2000 do
    let id, body = p.Gen.next () in
    Alcotest.(check bool) "timed requests stay inside the key set" true
      (id < Gen.hot_keys && body = p.Gen.keys.(id))
  done

(* About seven times what a 40 s run sends today, so the opt pools and
   the serial numbers hold out as the program gets faster. *)
let test_cold_keys_never_repeat () =
  let p = Gen.plan Gen.Serve_cold_mix ~seed:3 in
  let warm = Array.to_list (Array.map (fun id -> p.Gen.keys.(id)) p.Gen.warmup) in
  let timed = List.init 20_000 (fun _ -> snd (p.Gen.next ())) in
  let all = warm @ timed in
  Alcotest.(check int) "every cold-mix key is new" (List.length all) (distinct_keys all)

let test_replay_matches_stream () =
  List.iter
    (fun w ->
      let p = Gen.plan w ~seed:11 in
      let sent = List.init 500 (fun _ -> p.Gen.next ()) in
      let body_of = Gen.replay w ~seed:11 500 in
      List.iter
        (fun (id, body) ->
          Alcotest.(check string) (Gen.workload_name w ^ ": replayed body") body (body_of id))
        sent)
    workloads

let test_canaries_in_every_serve_key_set () =
  List.iter
    (fun w ->
      let p = Gen.plan w ~seed:5 in
      let warm = Array.to_list (Array.map (fun id -> p.Gen.keys.(id)) p.Gen.warmup) in
      Array.iter
        (fun c ->
          Alcotest.(check bool) (Gen.workload_name w ^ " warms up with " ^ c) true (List.mem c warm))
        Gen.canaries)
    workloads

let answer_body ~key ~p =
  Jsonx.to_string
    (Jsonx.Obj
       [ ("schema", Jsonx.Str "ddm.eval/v1"); ("cached", Jsonx.Bool true); ("source", Jsonx.Str "lru");
         ("key", Jsonx.Str key); ("p", Jsonx.Num p) ])

let expected body =
  match Check.expected_of_body body with Ok e -> e | Error m -> Alcotest.fail m

let test_checker () =
  let e = expected Gen.canary_obl4 in
  let verify ~status body = Check.verify e (Check.reply ~status ~body) in
  let ok = verify ~status:200 (answer_body ~key:e.Check.key ~p:e.Check.p) in
  Alcotest.(check bool) "the true answer passes" true (Result.is_ok ok);
  let wrong_p = verify ~status:200 (answer_body ~key:e.Check.key ~p:(Float.succ e.Check.p)) in
  Alcotest.(check bool) "a p one ulp off is flagged" true (Result.is_error wrong_p);
  let wrong_key = verify ~status:200 (answer_body ~key:(e.Check.key ^ "x") ~p:e.Check.p) in
  Alcotest.(check bool) "a wrong key is flagged" true (Result.is_error wrong_key);
  let status = verify ~status:429 (answer_body ~key:e.Check.key ~p:e.Check.p) in
  Alcotest.(check bool) "a non-200 is flagged" true (Result.is_error status);
  Alcotest.(check bool) "a body that is not JSON is flagged" true (Result.is_error (verify ~status:200 "{"))

let test_canaries_hold () =
  Array.iter
    (fun c ->
      let response =
        match Solver.parse c with
        | Ok r -> Jsonx.to_string (Solver.answer_to_json (Solver.solve ~deadline_mono_s:infinity r))
        | Error e -> Alcotest.failf "canary %s rejected: %s" c e
      in
      match Check.canary c ~response with
      | Some (Ok ()) -> ()
      | Some (Error m) -> Alcotest.failf "canary %s: %s" c m
      | None -> Alcotest.failf "%s is not recognised as a canary" c)
    Gen.canaries;
  Alcotest.(check bool) "a planted wrong canary value fails" true
    (match Check.canary Gen.canary_obl4 ~response:{|{"p":0.5}|} with Some (Error _) -> true | _ -> false)

let test_percentile_refuses () =
  let hist n =
    let h = Pct.hist () in
    for i = 1 to n do
      Pct.observe h (1e-3 *. float_of_int i)
    done;
    h
  in
  let near want = function
    | Some v -> Float.abs (v -. want) <= 1e-3 *. want
    | None -> false
  in
  Alcotest.(check bool) "p99 of 999 samples is refused" true (Pct.quantile (hist 999) 0.99 = None);
  Alcotest.(check bool) "p99 of 1000 samples, within 0.1%" true (near 0.990 (Pct.quantile (hist 1000) 0.99));
  Alcotest.(check bool) "p50 of 19 samples is refused" true (Pct.quantile (hist 19) 0.5 = None);
  Alcotest.(check bool) "p50 of 20 samples, within 0.1%" true (near 0.010 (Pct.quantile (hist 20) 0.5));
  Alcotest.(check bool) "no samples, no percentile" true (Pct.quantile (Pct.hist ()) 0.5 = None);
  Alcotest.(check bool) "the slowest op bounds every percentile" true
    (match Pct.max_observed (hist 999) with Some m -> m >= 0.999 && m <= 0.999 *. 1.002 | None -> false)

let () =
  Alcotest.run "perfbench"
    [ ( "gen",
        [ Alcotest.test_case "same seed, same stream" `Quick test_same_seed_same_stream;
          Alcotest.test_case "other seed, other stream" `Quick test_other_seed_other_stream;
          Alcotest.test_case "serve-hot keys fit the LRU" `Quick test_hot_fits_lru;
          Alcotest.test_case "20k serve-cold-mix keys never repeat" `Quick test_cold_keys_never_repeat;
          Alcotest.test_case "replay remakes the stream" `Quick test_replay_matches_stream;
          Alcotest.test_case "canaries in every serve key set" `Quick
            test_canaries_in_every_serve_key_set ] );
      ( "check",
        [ Alcotest.test_case "planted wrong p and key are flagged" `Quick test_checker;
          Alcotest.test_case "paper canaries hold" `Quick test_canaries_hold ] );
      ("pct", [ Alcotest.test_case "refuses thin tails" `Quick test_percentile_refuses ]) ]
