(* Tests for the observability stack: the metrics registry, span tracing,
   the exporters (golden output), and an end-to-end check that `ddm ...
   --metrics json` emits parseable JSON. *)

(* The registry and the trace buffer are process-global; every test that
   flips an enable switch restores it so tests stay order-independent. *)
let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

let with_tracing f =
  ignore (Trace.drain ());
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      ignore (Trace.drain ()))
    f

(* ------------------------- minimal JSON validator ------------------------- *)

(* Just enough of a recursive-descent JSON parser to decide validity; the
   exporters are hand-rolled (no yojson in the build), so the tests
   double-check the output really is JSON and not merely JSON-shaped. *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let fail () = raise_notrace Exit in
  let peek () = if !pos < n then s.[!pos] else fail () in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let lit l =
    let k = String.length l in
    if !pos + k <= n && String.sub s !pos k = l then pos := !pos + k else fail ()
  in
  let string_lit () =
    if peek () <> '"' then fail ();
    incr pos;
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        pos := !pos + 2;
        go ()
      | _ ->
        incr pos;
        go ()
    in
    go ()
  in
  let number () =
    let is_num = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
    if not (is_num (peek ())) then fail ();
    while !pos < n && is_num s.[!pos] do
      incr pos
    done
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then incr pos
      else
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          if peek () <> ':' then fail ();
          incr pos;
          value ();
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            members ()
          | '}' -> incr pos
          | _ -> fail ()
        in
        members ()
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then incr pos
      else
        let rec elems () =
          value ();
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            elems ()
          | ']' -> incr pos
          | _ -> fail ()
        in
        elems ()
    | '"' -> string_lit ()
    | 't' -> lit "true"
    | 'f' -> lit "false"
    | 'n' -> lit "null"
    | _ -> number ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let validator_tests =
  [
    Alcotest.test_case "json validator sanity" `Quick (fun () ->
      List.iter
        (fun s -> Alcotest.(check bool) ("valid: " ^ s) true (json_valid s))
        [
          "{}"; "[]"; "3"; "-2.5e-3"; "\"a\\\"b\"";
          "{\"a\":[1,2,{\"b\":null}],\"c\":true}";
        ];
      List.iter
        (fun s -> Alcotest.(check bool) ("invalid: " ^ s) false (json_valid s))
        [ ""; "{"; "{\"a\":}"; "[1,]"; "{\"a\":1} trailing"; "nul" ]);
  ]

(* ------------------------------ metrics ------------------------------ *)

let metric_tests =
  [
    Alcotest.test_case "disabled updates are no-ops" `Quick (fun () ->
      Metrics.reset ();
      Metrics.set_enabled false;
      let c = Metrics.counter "test_obs_off_total" in
      let g = Metrics.gauge "test_obs_off_gauge" in
      let h = Metrics.histogram ~buckets:[| 1. |] "test_obs_off_seconds" in
      Metrics.incr c;
      Metrics.add c 10;
      Metrics.set g 3.5;
      Metrics.observe h 0.5;
      Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
      Alcotest.(check (float 0.)) "gauge untouched" 0. (Metrics.gauge_value g);
      match Metrics.find "test_obs_off_seconds" with
      | Some { value = Metrics.Histogram_v { count; _ }; _ } ->
        Alcotest.(check int) "histogram untouched" 0 count
      | _ -> Alcotest.fail "histogram not registered");
    Alcotest.test_case "counter incr/add and reset" `Quick (fun () ->
      with_metrics (fun () ->
        let c = Metrics.counter ~help:"h" "test_obs_c_total" in
        Metrics.incr c;
        Metrics.add c 5;
        Alcotest.(check int) "value" 6 (Metrics.counter_value c);
        Alcotest.check_raises "negative add"
          (Invalid_argument "Metrics.add \"test_obs_c_total\": negative increment") (fun () ->
            Metrics.add c (-1));
        Metrics.reset ();
        Alcotest.(check int) "reset zeroes" 0 (Metrics.counter_value c)));
    Alcotest.test_case "registration is idempotent and shares by name" `Quick (fun () ->
      with_metrics (fun () ->
        let a = Metrics.counter "test_obs_shared_total" in
        let b = Metrics.counter "test_obs_shared_total" in
        Metrics.incr a;
        Metrics.incr b;
        Alcotest.(check int) "both hit the same counter" 2 (Metrics.counter_value a);
        Alcotest.(check bool) "physically equal" true (a == b)));
    Alcotest.test_case "kind and bounds mismatches are rejected" `Quick (fun () ->
      ignore (Metrics.counter "test_obs_kind_total");
      Alcotest.check_raises "gauge over counter"
        (Invalid_argument "Metrics: \"test_obs_kind_total\" is already registered with a different kind")
        (fun () -> ignore (Metrics.gauge "test_obs_kind_total"));
      ignore (Metrics.histogram ~buckets:[| 1.; 2. |] "test_obs_hb_seconds");
      Alcotest.check_raises "different bounds"
        (Invalid_argument "Metrics.histogram \"test_obs_hb_seconds\": bounds differ from registration")
        (fun () -> ignore (Metrics.histogram ~buckets:[| 1.; 3. |] "test_obs_hb_seconds"));
      Alcotest.check_raises "empty bounds"
        (Invalid_argument "Metrics.histogram \"test_obs_empty\": empty bounds") (fun () ->
          ignore (Metrics.histogram ~buckets:[||] "test_obs_empty"));
      Alcotest.check_raises "non-increasing bounds"
        (Invalid_argument "Metrics.histogram \"test_obs_dec\": bounds must be strictly increasing")
        (fun () -> ignore (Metrics.histogram ~buckets:[| 2.; 1. |] "test_obs_dec")));
    Alcotest.test_case "gauge moves both ways" `Quick (fun () ->
      with_metrics (fun () ->
        let g = Metrics.gauge "test_obs_g" in
        Metrics.set g 7.25;
        Metrics.set g (-1.5);
        Alcotest.(check (float 0.)) "last write wins" (-1.5) (Metrics.gauge_value g)));
    Alcotest.test_case "histogram le-bucket semantics" `Quick (fun () ->
      with_metrics (fun () ->
        let h = Metrics.histogram ~buckets:[| 1.; 2. |] "test_obs_h_seconds" in
        (* le semantics: an observation equal to a bound lands in that bucket *)
        Metrics.observe h 1.0;
        Metrics.observe h 1.5;
        Metrics.observe h 5.0;
        match Metrics.find "test_obs_h_seconds" with
        | Some { value = Metrics.Histogram_v { bounds; counts; sum; count }; _ } ->
          Alcotest.(check (array (float 0.))) "bounds" [| 1.; 2. |] bounds;
          Alcotest.(check (array int)) "per-bucket counts" [| 1; 1; 1 |] counts;
          Alcotest.(check (float 1e-12)) "sum" 7.5 sum;
          Alcotest.(check int) "count" 3 count
        | _ -> Alcotest.fail "histogram not found"));
    Alcotest.test_case "snapshot is sorted and find misses cleanly" `Quick (fun () ->
      let names = List.map (fun (s : Metrics.sample) -> s.name) (Metrics.snapshot ()) in
      Alcotest.(check (list string)) "sorted by name" (List.sort compare names) names;
      Alcotest.(check bool) "find miss" true (Metrics.find "test_obs_no_such_metric" = None));
    Alcotest.test_case "gauge add is atomic read-modify-write" `Quick (fun () ->
      with_metrics (fun () ->
        let g = Metrics.gauge "test_obs_g_add" in
        Metrics.set g 1.0;
        Metrics.add_gauge g 0.5;
        Metrics.add_gauge g (-2.0);
        Alcotest.(check (float 1e-12)) "accumulated" (-0.5) (Metrics.gauge_value g)));
    Alcotest.test_case "exponential_buckets spans start to start*factor^(n-1)" `Quick (fun () ->
      let b = Metrics.exponential_buckets ~start:5e-4 ~factor:2. ~count:16 in
      Alcotest.(check int) "count" 16 (Array.length b);
      Alcotest.(check (float 1e-15)) "first" 5e-4 b.(0);
      Alcotest.(check (float 1e-9)) "last" (5e-4 *. 32768.) b.(15);
      let increasing = ref true in
      Array.iteri (fun i v -> if i > 0 && v <= b.(i - 1) then increasing := false) b;
      Alcotest.(check bool) "strictly increasing" true !increasing;
      List.iter
        (fun (msg, f) ->
          Alcotest.check_raises "rejected" (Invalid_argument ("Metrics.exponential_buckets: " ^ msg)) f)
        [
          ( "start must be positive",
            fun () -> ignore (Metrics.exponential_buckets ~start:0. ~factor:2. ~count:4) );
          ( "factor must be > 1",
            fun () -> ignore (Metrics.exponential_buckets ~start:1. ~factor:1. ~count:4) );
          ( "count must be >= 1",
            fun () -> ignore (Metrics.exponential_buckets ~start:1. ~factor:2. ~count:0) );
        ]);
    Alcotest.test_case "snapring samples carry histogram (count, sum) pairs" `Quick (fun () ->
      with_metrics (fun () ->
        let h = Metrics.histogram ~buckets:[| 1.; 2. |] "test_obs_hs_seconds" in
        Metrics.observe h 0.5;
        Metrics.observe h 3.0;
        Snapring.sample_now ();
        let last = List.hd (List.rev (Snapring.samples ())) in
        match List.assoc_opt "test_obs_hs_seconds" last.Snapring.histograms with
        | Some (count, sum) ->
          Alcotest.(check int) "count" 2 count;
          Alcotest.(check (float 1e-12)) "sum" 3.5 sum
        | None -> Alcotest.fail "histogram missing from samples"));
  ]

(* ------------------------------- trace ------------------------------- *)

let trace_tests =
  [
    Alcotest.test_case "disabled tracing records nothing" `Quick (fun () ->
      Trace.set_enabled false;
      ignore (Trace.drain ());
      let r = Trace.with_span "off" (fun () -> 41 + 1) in
      Alcotest.(check int) "value passes through" 42 r;
      Alcotest.(check int) "no spans" 0 (List.length (Trace.spans ())));
    Alcotest.test_case "spans nest and time" `Quick (fun () ->
      with_tracing (fun () ->
        let r = Trace.with_span "outer" (fun () -> Trace.with_span "inner" (fun () -> 7)) in
        Alcotest.(check int) "value" 7 r;
        match Trace.spans () with
        | [ outer; inner ] ->
          Alcotest.(check string) "outer first (chronological)" "outer" outer.Trace.name;
          Alcotest.(check string) "inner second" "inner" inner.Trace.name;
          Alcotest.(check int) "outer depth" 0 outer.Trace.depth;
          Alcotest.(check int) "inner depth" 1 inner.Trace.depth;
          Alcotest.(check bool) "durations nonneg" true
            (outer.Trace.dur_s >= 0. && inner.Trace.dur_s >= 0.);
          Alcotest.(check bool) "inner within outer" true
            (inner.Trace.dur_s <= outer.Trace.dur_s +. 1e-9)
        | spans -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length spans))));
    Alcotest.test_case "spans survive exceptions" `Quick (fun () ->
      with_tracing (fun () ->
        Alcotest.check_raises "re-raised" Exit (fun () ->
          Trace.with_span "boom" (fun () -> raise Exit));
        match Trace.spans () with
        | [ s ] -> Alcotest.(check string) "recorded anyway" "boom" s.Trace.name
        | _ -> Alcotest.fail "expected exactly one span"));
    Alcotest.test_case "durations come from the monotonic clock and are nonnegative" `Quick
      (fun () ->
      let a = Trace.now_mono_s () in
      let b = Trace.now_mono_s () in
      Alcotest.(check bool) "monotonic clock does not go backwards" true (b >= a);
      with_tracing (fun () ->
        for _ = 1 to 200 do
          Trace.with_span "tick" (fun () -> ())
        done;
        Alcotest.(check bool) "every duration nonnegative" true
          (List.for_all (fun s -> s.Trace.dur_s >= 0.) (Trace.spans ()))));
    Alcotest.test_case "profile aggregates per name with allocation deltas" `Quick (fun () ->
      with_tracing (fun () ->
        (* 3 calls under one name, each allocating a fresh list; a second
           name stays allocation-light to keep the sort order interesting *)
        for _ = 1 to 3 do
          Trace.with_span "alloc_heavy" (fun () ->
            Sys.opaque_identity (List.init 5000 (fun i -> float_of_int i)) |> ignore)
        done;
        Trace.with_span "alloc_light" (fun () -> ());
        let rows = Trace.profile () in
        Alcotest.(check int) "two distinct names" 2 (List.length rows);
        let heavy = List.find (fun r -> r.Trace.p_name = "alloc_heavy") rows in
        let light = List.find (fun r -> r.Trace.p_name = "alloc_light") rows in
        Alcotest.(check int) "heavy calls pooled" 3 heavy.Trace.calls;
        Alcotest.(check int) "light calls" 1 light.Trace.calls;
        Alcotest.(check bool) "heavy span saw minor allocation" true
          (heavy.Trace.p_minor_words > 1000.);
        Alcotest.(check bool) "totals nonnegative" true
          (heavy.Trace.total_s >= 0. && light.Trace.total_s >= 0.)));
    Alcotest.test_case "the profile counts spans past the cap" `Quick (fun () ->
      with_tracing (fun () ->
        for _ = 1 to 10_050 do
          Trace.with_span "capped" (fun () -> ())
        done;
        Alcotest.(check int) "spans keeps the first 10 000" 10_000
          (List.length (List.filter (fun s -> s.Trace.name = "capped") (Trace.spans ())));
        match List.find_opt (fun r -> r.Trace.p_name = "capped") (Trace.profile ()) with
        | Some r -> Alcotest.(check int) "the profile counts every call" 10_050 r.Trace.calls
        | None -> Alcotest.fail "no capped row"));
    Alcotest.test_case "a span attributes major-heap allocation" `Quick (fun () ->
      with_tracing (fun () ->
        (* a float array this long is allocated straight in the major heap:
           100 000 words plus its header *)
        Trace.with_span "big" (fun () -> ignore (Sys.opaque_identity (Array.make 100_000 0.)));
        match Trace.spans () with
        | [ s ] ->
          Alcotest.(check bool)
            (Printf.sprintf "major words %.0f >= 100001" s.Trace.major_words)
            true
            (s.Trace.major_words >= 100_001.)
        | spans -> Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length spans))));
    Alcotest.test_case "disabled with_span is allocation-free" `Quick (fun () ->
      Trace.set_enabled false;
      ignore (Trace.drain ());
      (* Pre-allocate the thunk so the loop body is a single load-and-branch
         plus an indirect call; any per-iteration words would show up here. *)
      let f = Sys.opaque_identity (fun () -> 0) in
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        ignore (Sys.opaque_identity (Trace.with_span "off" f))
      done;
      let dw = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Printf.sprintf "10k disabled spans allocated %.0f words (want < 100)" dw)
        true (dw < 100.));
    Alcotest.test_case "report mentions the span and its aggregate" `Quick (fun () ->
      with_tracing (fun () ->
        Trace.with_span "report_me" (fun () -> ());
        Trace.with_span "report_me" (fun () -> ());
        let rep = Trace.report () in
        let contains hay needle =
          let lh = String.length hay and ln = String.length needle in
          let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "names the span" true (contains rep "report_me");
        Alcotest.(check bool) "has the per-name profile" true (contains rep "profile by name")));
    Alcotest.test_case "parallel MC folds worker spans into the main profile" `Quick (fun () ->
      with_tracing (fun () ->
        let rng = Rng.create ~seed:11 in
        let est =
          Mc.probability ~domains:2 ~rng ~samples:1000 (fun rng ->
            Rng.float01 rng < 0.5)
        in
        Alcotest.(check int) "all samples drawn" 1000 est.Mc.samples;
        let rows = Trace.profile () in
        let calls name =
          match List.find_opt (fun r -> r.Trace.p_name = name) rows with
          | Some r -> r.Trace.calls
          | None -> 0
        in
        (* Worker-domain lease spans are drained before join and absorbed on
           the main domain, so the profile sees every lease regardless of
           which domain ran it. *)
        Alcotest.(check int) "one lease span per lease" Par_fold.leases (calls "mc.par.lease");
        Alcotest.(check int) "top-level span on main" 1 (calls "mc.probability")));
    Alcotest.test_case "exact folds span their leases only on a pool" `Quick (fun () ->
      (* an inline fold already sits under its caller's span; a pooled one
         records one span per lease, and a 10-item fold runs 10 leases,
         not the default 64 *)
      let lease_spans domains =
        with_tracing (fun () ->
          ignore (Par_fold.sum ~span:"test.lease" ~domains ~items:10 float_of_int);
          let rows = Trace.profile () in
          match List.find_opt (fun r -> r.Trace.p_name = "test.lease") rows with
          | Some r -> r.Trace.calls
          | None -> 0)
      in
      Alcotest.(check int) "inline: no lease spans" 0 (lease_spans 1);
      Alcotest.(check int) "pooled: one span per item-capped lease" 10 (lease_spans 2));
  ]

(* ------------------------------ exporters ------------------------------ *)

(* Golden tests build the sample list by hand: the live registry's contents
   depend on which modules the binary happens to link, so snapshots are not
   stable input for pinned output. *)
let golden_samples =
  [
    { Metrics.name = "t_requests_total"; help = "Requests served"; value = Metrics.Counter_v 3 };
    { Metrics.name = "t_temperature"; help = ""; value = Metrics.Gauge_v 2.5 };
    {
      Metrics.name = "t_latency_seconds";
      help = "Latency";
      value =
        Metrics.Histogram_v
          { bounds = [| 0.1; 1. |]; counts = [| 1; 2; 3 |]; sum = 4.5; count = 6 };
    };
  ]

let export_tests =
  [
    Alcotest.test_case "prometheus golden" `Quick (fun () ->
      let expected =
        "# HELP t_requests_total Requests served\n\
         # TYPE t_requests_total counter\n\
         t_requests_total 3\n\
         # TYPE t_temperature gauge\n\
         t_temperature 2.5\n\
         # HELP t_latency_seconds Latency\n\
         # TYPE t_latency_seconds histogram\n\
         t_latency_seconds_bucket{le=\"0.1\"} 1\n\
         t_latency_seconds_bucket{le=\"1\"} 3\n\
         t_latency_seconds_bucket{le=\"+Inf\"} 6\n\
         t_latency_seconds_sum 4.5\n\
         t_latency_seconds_count 6\n"
      in
      Alcotest.(check string) "exposition" expected (Export.to_prometheus golden_samples));
    Alcotest.test_case "json-lines golden and valid" `Quick (fun () ->
      let expected =
        "{\"name\":\"t_requests_total\",\"help\":\"Requests served\",\"type\":\"counter\",\"value\":3}\n\
         {\"name\":\"t_temperature\",\"type\":\"gauge\",\"value\":2.5}\n\
         {\"name\":\"t_latency_seconds\",\"help\":\"Latency\",\"type\":\"histogram\",\"count\":6,\"sum\":4.5,\"buckets\":[{\"le\":0.10000000000000001,\"count\":1},{\"le\":1,\"count\":3},{\"le\":\"+Inf\",\"count\":6}]}\n"
      in
      let got = Export.to_json_lines golden_samples in
      Alcotest.(check string) "lines" expected got;
      String.split_on_char '\n' got
      |> List.filter (fun l -> l <> "")
      |> List.iter (fun l -> Alcotest.(check bool) ("parses: " ^ l) true (json_valid l)));
    Alcotest.test_case "bench report JSON golden and valid" `Quick (fun () ->
      let expected =
        "{\"counters\":{\"t_requests_total\":3},\"gauges\":{\"t_temperature\":2.5},\"histograms\":{\"t_latency_seconds\":{\"count\":6,\"sum\":4.5,\"buckets\":[{\"le\":0.10000000000000001,\"count\":1},{\"le\":1,\"count\":3},{\"le\":\"+Inf\",\"count\":6}]}}}"
      in
      let got = Jsonx.to_string (Export.grouped_json golden_samples) in
      Alcotest.(check string) "grouped object" expected got;
      Alcotest.(check bool) "parses" true (json_valid got));
    Alcotest.test_case "table lists every metric with cumulative buckets" `Quick (fun () ->
      let t = Export.to_table golden_samples in
      let contains needle =
        let lh = String.length t and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub t i ln = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun needle -> Alcotest.(check bool) ("contains: " ^ needle) true (contains needle))
        [
          "metric"; "t_requests_total"; "counter    3"; "t_temperature"; "gauge      2.5";
          "count=6 sum=4.5 mean=0.75"; "le <= 0.1"; "le <= +Inf";
        ]);
    Alcotest.test_case "prom_name sanitizes to the exposition name class" `Quick (fun () ->
      Alcotest.(check string) "valid name untouched" "ddm_mc:samples_total"
        (Export.prom_name "ddm_mc:samples_total");
      Alcotest.(check string) "spaces and punctuation" "_bad_name_"
        (Export.prom_name "9bad name!");
      Alcotest.(check string) "leading digit" "_2xx_total" (Export.prom_name "42xx_total");
      Alcotest.(check string) "empty becomes underscore" "_" (Export.prom_name "");
      let ok c = match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false in
      let dirty = "m\xc3\xa9trique-total/s" in
      Alcotest.(check bool) "every output byte is in class" true
        (String.for_all ok (Export.prom_name dirty)));
    Alcotest.test_case "prom_escape_label escapes backslash, quote, newline" `Quick (fun () ->
      Alcotest.(check string) "backslash" "a\\\\b" (Export.prom_escape_label "a\\b");
      Alcotest.(check string) "quote" "a\\\"b" (Export.prom_escape_label "a\"b");
      Alcotest.(check string) "newline" "a\\nb" (Export.prom_escape_label "a\nb");
      Alcotest.(check string) "plain passes through" "plain" (Export.prom_escape_label "plain"));
    Alcotest.test_case "prometheus conformance golden for dirty input" `Quick (fun () ->
      let dirty =
        [
          { Metrics.name = "2 bad!name"; help = "counts\nthings"; value = Metrics.Counter_v 1 };
        ]
      in
      let expected =
        "# HELP __bad_name counts\\nthings\n\
         # TYPE __bad_name counter\n\
         __bad_name 1\n"
      in
      Alcotest.(check string) "sanitized exposition" expected (Export.to_prometheus dirty));
    Alcotest.test_case "prometheus output always ends with a newline" `Quick (fun () ->
      Alcotest.(check string) "empty snapshot is a bare newline" "\n"
        (Export.to_prometheus []);
      let out = Export.to_prometheus golden_samples in
      Alcotest.(check bool) "trailing newline" true (out.[String.length out - 1] = '\n'));
    Alcotest.test_case "histogram_quantile interpolates within buckets" `Quick (fun () ->
      let bounds = [| 1.; 2.; 4. |] in
      (* 10 obs in (0,1], 10 in (1,2], none in (2,4], none above *)
      let counts = [| 10; 10; 0; 0 |] in
      let q p = Export.histogram_quantile ~bounds ~counts p in
      (* rank 10 sits exactly at the first bound; rank 15 is 5/10 of the
         way through the (1,2] bucket *)
      Alcotest.(check (float 1e-9)) "median at bucket edge" 1.0 (q 0.5);
      Alcotest.(check (float 1e-9)) "p75 interpolated" 1.5 (q 0.75);
      Alcotest.(check (float 1e-9)) "p25 interpolates from 0" 0.5 (q 0.25);
      Alcotest.(check (float 1e-9)) "p100 tops out at the last occupied bound" 2.0 (q 1.0);
      Alcotest.(check (float 1e-9)) "empty histogram reports 0" 0.
        (Export.histogram_quantile ~bounds ~counts:[| 0; 0; 0; 0 |] 0.99);
      (* mass in the overflow bucket degrades to the highest finite bound *)
      Alcotest.(check (float 1e-9)) "overflow clamps to last bound" 4.0
        (Export.histogram_quantile ~bounds ~counts:[| 0; 0; 0; 5 |] 0.99);
      Alcotest.check_raises "q out of range"
        (Invalid_argument "Export.histogram_quantile: q outside [0, 1]") (fun () ->
          ignore (q 1.5));
      Alcotest.check_raises "length mismatch"
        (Invalid_argument "Export.histogram_quantile: counts must be bounds + 1 long")
        (fun () -> ignore (Export.histogram_quantile ~bounds ~counts:[| 1; 2 |] 0.5)));
    Alcotest.test_case "json lines keep a gauge at full precision" `Quick (fun () ->
      let v = 0.1234567890123456 in
      let line =
        Export.to_json_lines [ { Metrics.name = "t_ratio"; help = ""; value = Metrics.Gauge_v v } ]
      in
      match Jsonx.float_member "value" (Jsonx.parse_exn (String.trim line)) with
      | Some got ->
        Alcotest.(check bool) (Printf.sprintf "%h read back as %h" v got) true
          (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float v))
      | None -> Alcotest.fail ("no value in " ^ line));
  ]

(* -------------------------------- logx -------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Capture everything Logx emits during [f] and return it, restoring the
   default (disabled, human, stderr) configuration afterwards so the global
   sink never leaks across tests. *)
let capture_logs ?(level = Some Logx.Info) ?(format = Logx.Human) f =
  let path = Filename.temp_file "test_obs_log" ".log" in
  let oc = open_out path in
  Logx.set_channel oc;
  Logx.set_format format;
  Logx.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Logx.set_level None;
      Logx.set_format Logx.Human;
      Logx.set_channel stderr;
      close_out_noerr oc;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      f ();
      flush oc;
      read_file path)

let logx_tests =
  [
    Alcotest.test_case "level filter admits at and above, suppresses below" `Quick (fun () ->
      let out =
        capture_logs ~level:(Some Logx.Warn) (fun () ->
          Logx.debug "quiet_debug" [];
          Logx.info "quiet_info" [];
          Logx.warn "loud_warn" [ ("k", Logx.Int 1) ];
          Logx.error "loud_error" [])
      in
      let contains needle =
        let lh = String.length out and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub out i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "debug suppressed" false (contains "quiet_debug");
      Alcotest.(check bool) "info suppressed" false (contains "quiet_info");
      Alcotest.(check bool) "warn emitted" true (contains "loud_warn");
      Alcotest.(check bool) "error emitted" true (contains "loud_error");
      Alcotest.(check bool) "field rendered" true (contains "k=1"));
    Alcotest.test_case "disabled by default and after None" `Quick (fun () ->
      Logx.set_level None;
      Alcotest.(check bool) "would_log error" false (Logx.would_log Logx.Error);
      Logx.set_level (Some Logx.Debug);
      Alcotest.(check bool) "debug admits everything" true (Logx.would_log Logx.Debug);
      Logx.set_level None);
    Alcotest.test_case "json format emits one valid object per line" `Quick (fun () ->
      let out =
        capture_logs ~level:(Some Logx.Debug) ~format:Logx.Json (fun () ->
          Logx.info "json line \"quoted\""
            [
              ("s", Logx.Str "a\"b\\c"); ("i", Logx.Int (-3)); ("f", Logx.Float 0.5);
              ("b", Logx.Bool true); ("nan", Logx.Float Float.nan);
            ];
          Logx.debug "second" [])
      in
      let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
      Alcotest.(check int) "two records" 2 (List.length lines);
      List.iter
        (fun l -> Alcotest.(check bool) ("parses: " ^ l) true (json_valid l))
        lines;
      match Jsonx.parse (List.hd lines) with
      | Error msg -> Alcotest.fail msg
      | Ok j ->
        Alcotest.(check (option string)) "msg" (Some "json line \"quoted\"")
          (Jsonx.string_member "msg" j);
        Alcotest.(check (option string)) "level" (Some "info") (Jsonx.string_member "level" j);
        Alcotest.(check (option string)) "string field" (Some "a\"b\\c")
          (Jsonx.string_member "s" j);
        Alcotest.(check (option int)) "int field" (Some (-3)) (Jsonx.int_member "i" j);
        Alcotest.(check bool) "bool field" true (Jsonx.member "b" j = Some (Jsonx.Bool true));
        Alcotest.(check bool) "nan field is null" true (Jsonx.member "nan" j = Some Jsonx.Null));
    Alcotest.test_case "human format is one line per record with fields" `Quick (fun () ->
      let out =
        capture_logs ~level:(Some Logx.Info) (fun () ->
          Logx.info "human_msg" [ ("plain", Logx.Str "x"); ("spacey", Logx.Str "a b") ])
      in
      let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
      Alcotest.(check int) "one line" 1 (List.length lines);
      let l = List.hd lines in
      let contains needle =
        let lh = String.length l and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub l i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "has level" true (contains "info");
      Alcotest.(check bool) "has msg" true (contains "human_msg");
      Alcotest.(check bool) "bare atom unquoted" true (contains "plain=x");
      Alcotest.(check bool) "spacey value quoted" true (contains "spacey=\"a b\""));
    Alcotest.test_case "disabled logging is allocation-free" `Quick (fun () ->
      Logx.set_level None;
      let msg = Sys.opaque_identity "off" in
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Logx.debug msg []
      done;
      let dw = Gc.minor_words () -. w0 in
      Alcotest.(check bool)
        (Printf.sprintf "10k disabled records allocated %.0f words (want < 100)" dw)
        true (dw < 100.));
    Alcotest.test_case "json records keep a float field at full precision" `Quick (fun () ->
      let v = 0.1234567890123456 in
      let out =
        capture_logs ~format:Logx.Json (fun () -> Logx.info "precise" [ ("f", Logx.Float v) ])
      in
      match Jsonx.float_member "f" (Jsonx.parse_exn (String.trim out)) with
      | Some got ->
        Alcotest.(check bool) (Printf.sprintf "%h read back as %h" v got) true
          (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float v))
      | None -> Alcotest.fail ("no float field in " ^ out));
  ]

(* ---------------------------- chrome trace ---------------------------- *)

let mk_span ?(depth = 0) ~name ~tid ~start_s ~dur_s () =
  {
    Trace.name; depth; tid; start_s; dur_s; minor_words = 120.; major_words = 8.;
  }

let chrome_tests =
  [
    Alcotest.test_case "two-domain trace renders tracks, spans, counters" `Quick (fun () ->
      let spans =
        [
          mk_span ~name:"main.work" ~tid:0 ~start_s:100.0 ~dur_s:0.5 ();
          mk_span ~name:"mc.par.lease" ~tid:1 ~start_s:100.1 ~dur_s:0.2 ~depth:1 ();
          mk_span ~name:"mc.par.lease" ~tid:0 ~start_s:100.3 ~dur_s:0.1 ~depth:1 ();
        ]
      in
      let counters =
        [
          { Snapring.t_s = 100.0; counters = [ ("c_total", 0); ("zero_total", 0) ]; gauges = [];
            histograms = [ ("h_seconds", (0, 0.)); ("dead_seconds", (0, 0.)) ] };
          { Snapring.t_s = 100.4; counters = [ ("c_total", 7); ("zero_total", 0) ]; gauges = [];
            histograms = [ ("h_seconds", (3, 0.75)); ("dead_seconds", (0, 0.)) ] };
        ]
      in
      let out = Chrome_trace.json ~counters spans in
      Alcotest.(check bool) "valid JSON" true (json_valid (String.trim out));
      let j = Jsonx.parse_exn (String.trim out) in
      let events = Option.get (Jsonx.list_member "traceEvents" j) in
      let ph e = Option.value ~default:"" (Jsonx.string_member "ph" e) in
      let xs = List.filter (fun e -> ph e = "X") events in
      let ms = List.filter (fun e -> ph e = "M") events in
      let cs = List.filter (fun e -> ph e = "C") events in
      Alcotest.(check int) "one X event per span" 3 (List.length xs);
      Alcotest.(check int) "one thread_name per tid" 2 (List.length ms);
      (* tid 0 and 1 both covered by metadata *)
      let m_tids = List.filter_map (fun e -> Jsonx.int_member "tid" e) ms in
      Alcotest.(check (list int)) "metadata tids" [ 0; 1 ] (List.sort compare m_tids);
      (* live counter sampled twice + count/sum tracks for the live
         histogram (2 samples x 2 tracks); the constant-zero counter and
         the never-observed histogram are dropped *)
      Alcotest.(check int) "counter events" 6 (List.length cs);
      let c_names =
        List.sort_uniq compare (List.filter_map (fun e -> Jsonx.string_member "name" e) cs)
      in
      Alcotest.(check (list string)) "counter track names"
        [ "c_total"; "h_seconds_count"; "h_seconds_sum" ]
        c_names;
      let h_sum_vals =
        List.filter_map
          (fun e ->
            if Jsonx.string_member "name" e = Some "h_seconds_sum" then
              Option.bind (Jsonx.member "args" e) (Jsonx.float_member "value")
            else None)
          cs
      in
      Alcotest.(check (list (float 1e-9))) "histogram sum track values" [ 0.; 0.75 ] h_sum_vals;
      (* timestamps rebased on the earliest point: first span starts at 0 us *)
      let first_x = List.hd xs in
      Alcotest.(check (option (float 1e-6))) "rebased ts" (Some 0.)
        (Jsonx.float_member "ts" first_x);
      Alcotest.(check (option (float 1e-3))) "dur in us" (Some 500000.)
        (Jsonx.float_member "dur" first_x);
      (* GC delta rides along as args *)
      let args = Option.get (Jsonx.member "args" first_x) in
      Alcotest.(check (option (float 0.))) "minor words arg" (Some 120.)
        (Jsonx.float_member "minor_words" args));
    Alcotest.test_case "empty trace is still a valid document" `Quick (fun () ->
      let out = Chrome_trace.json [] in
      Alcotest.(check bool) "valid JSON" true (json_valid (String.trim out));
      let j = Jsonx.parse_exn (String.trim out) in
      Alcotest.(check bool) "empty traceEvents" true (Jsonx.list_member "traceEvents" j = Some []));
    Alcotest.test_case "write emits the same document to a file" `Quick (fun () ->
      let file = Filename.temp_file "test_obs_trace" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          let spans = [ mk_span ~name:"w" ~tid:0 ~start_s:1. ~dur_s:0.25 () ] in
          Chrome_trace.write ~file spans;
          Alcotest.(check string) "file contents" (Chrome_trace.json spans) (read_file file)));
  ]

(* ----------------------------- integration ----------------------------- *)

(* dune runtest runs from _build/default/test, and test/dune declares the
   ddm executable as a dep, so the relative path is reliable there; the
   second candidate keeps `dune exec test/test_obs.exe` from the project
   root working too. *)
let ddm_exe =
  let candidates =
    [
      Filename.concat ".." (Filename.concat "bin" "ddm.exe");
      Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "ddm.exe"));
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

(* -------------------------------- httpd -------------------------------- *)

(* Raw-socket HTTP client: the server must speak to anything, so the tests
   avoid bundling a client abstraction that could mask framing bugs. *)
let http_request ?(meth = "GET") port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n" meth path
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
      in
      drain ();
      let raw = Buffer.contents buf in
      let status =
        match String.split_on_char ' ' raw with
        | _ :: code :: _ -> Option.value ~default:(-1) (int_of_string_opt code)
        | _ -> -1
      in
      let body =
        let rec find i =
          if i + 3 >= String.length raw then None
          else if raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r' && raw.[i + 3] = '\n'
          then Some (String.sub raw (i + 4) (String.length raw - i - 4))
          else find (i + 1)
        in
        Option.value ~default:"" (find 0)
      in
      (status, body))

let with_server ?ledger_file f =
  match Httpd.start ?ledger_file ~port:0 () with
  | Error msg -> Alcotest.fail ("server did not start: " ^ msg)
  | Ok server ->
    Fun.protect ~finally:(fun () -> Httpd.stop server) (fun () -> f (Httpd.port server))

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let httpd_tests =
  [
    Alcotest.test_case "healthz answers ok" `Quick (fun () ->
      with_server (fun port ->
        let status, body = http_request port "/healthz" in
        Alcotest.(check int) "200" 200 status;
        Alcotest.(check string) "body" "ok\n" body));
    Alcotest.test_case "metrics serves the live exposition" `Quick (fun () ->
      with_metrics (fun () ->
        let c = Metrics.counter ~help:"via http" "test_obs_httpd_total" in
        Metrics.add c 41;
        with_server (fun port ->
          let status, body = http_request port "/metrics" in
          Alcotest.(check int) "200" 200 status;
          Alcotest.(check bool) "has our counter" true (contains body "test_obs_httpd_total 41");
          Alcotest.(check bool) "trailing newline" true
            (String.length body > 0 && body.[String.length body - 1] = '\n');
          (* the server's own request counter is live too: scrape again and
             the first scrape has been counted *)
          let _, body2 = http_request port "/metrics" in
          Alcotest.(check bool) "request counter moved" true
            (contains body2 "ddm_obs_http_requests_total"))));
    Alcotest.test_case "snapshot is valid JSON with the expected schema" `Quick (fun () ->
      with_metrics (fun () ->
        ignore (Metrics.counter "test_obs_snap_total");
        with_server (fun port ->
          let status, body = http_request port "/snapshot" in
          Alcotest.(check int) "200" 200 status;
          Alcotest.(check bool) "valid JSON" true (json_valid body);
          let j = Jsonx.parse_exn body in
          Alcotest.(check (option string)) "schema" (Some "ddm.snapshot/v1")
            (Jsonx.string_member "schema" j);
          Alcotest.(check bool) "has metrics object" true (Jsonx.member "metrics" j <> None);
          Alcotest.(check bool) "has profile array" true
            (Jsonx.list_member "profile" j <> None);
          Alcotest.(check bool) "has history array" true
            (Jsonx.list_member "history" j <> None))));
    Alcotest.test_case "runs serves the ledger tail" `Quick (fun () ->
      let file = Filename.temp_file "test_obs_httpd_ledger" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          let gc = Ledger.gc_now () in
          for k = 1 to 3 do
            Ledger.append ~file
              (Ledger.entry_of_run ~command:(Printf.sprintf "cmd%d" k) ~argv:[] ~wall_seconds:0.1
                 ~gc ())
          done;
          with_server ~ledger_file:file (fun port ->
            let status, body = http_request port "/runs?n=2" in
            Alcotest.(check int) "200" 200 status;
            Alcotest.(check bool) "valid JSON" true (json_valid body);
            let j = Jsonx.parse_exn body in
            Alcotest.(check (option string)) "schema" (Some "ddm.runs/v1")
              (Jsonx.string_member "schema" j);
            Alcotest.(check (option int)) "total" (Some 3) (Jsonx.int_member "total" j);
            let entries = Option.get (Jsonx.list_member "entries" j) in
            Alcotest.(check int) "tail of 2" 2 (List.length entries);
            Alcotest.(check (list (option string))) "newest entries"
              [ Some "cmd2"; Some "cmd3" ]
              (List.map (Jsonx.string_member "command") entries))));
    Alcotest.test_case "runs without a ledger renders empty" `Quick (fun () ->
      with_server (fun port ->
        let status, body = http_request port "/runs" in
        Alcotest.(check int) "200" 200 status;
        let j = Jsonx.parse_exn body in
        Alcotest.(check bool) "no entries" true (Jsonx.list_member "entries" j = Some [])));
    Alcotest.test_case "unknown path is 404, non-GET is 405" `Quick (fun () ->
      with_server (fun port ->
        Alcotest.(check int) "404" 404 (fst (http_request port "/no_such"));
        Alcotest.(check int) "405" 405 (fst (http_request ~meth:"POST" port "/metrics"));
        Alcotest.(check int) "HEAD ok" 200 (fst (http_request ~meth:"HEAD" port "/healthz"))));
    Alcotest.test_case "two servers can run side by side" `Quick (fun () ->
      with_server (fun p1 ->
        with_server (fun p2 ->
          Alcotest.(check bool) "distinct ports" true (p1 <> p2);
          Alcotest.(check int) "first alive" 200 (fst (http_request p1 "/healthz"));
          Alcotest.(check int) "second alive" 200 (fst (http_request p2 "/healthz")))));
    Alcotest.test_case "snapshot gauges read back bit for bit" `Quick (fun () ->
      with_metrics (fun () ->
        let v = 0.1234567890123456 in
        Metrics.set (Metrics.gauge "test_obs_snap_precise") v;
        with_server (fun port ->
          let _, body = http_request port "/snapshot" in
          let metrics = Jsonx.member "metrics" (Jsonx.parse_exn body) in
          let gauges = Option.bind metrics (Jsonx.member "gauges") in
          Alcotest.(check (option (float 0.))) "16 significant digits" (Some v)
            (Option.bind gauges (Jsonx.float_member "test_obs_snap_precise")))));
  ]

(* ------------------------- concurrent scraping ------------------------- *)

let concurrency_tests =
  [
    Alcotest.test_case "scraping never tears while workers increment" `Quick (fun () ->
      with_metrics (fun () ->
        let c = Metrics.counter ~help:"hammered" "test_obs_hammer_total" in
        let samples = 200_000 in
        let stop = Atomic.make false in
        (* Scraper domain: render the full exposition in a loop while the
           MC workers bump the counter.  Every render must be well-formed
           (nonempty, newline-terminated) and never raise. *)
        let scraper =
          Domain.spawn (fun () ->
            let n = ref 0 and bad = ref 0 in
            while not (Atomic.get stop) do
              let s = Export.to_prometheus (Metrics.snapshot ()) in
              if String.length s = 0 || s.[String.length s - 1] <> '\n' then incr bad;
              incr n
            done;
            (!n, !bad))
        in
        let total =
          Par_fold.sample ~domains:3 ~rng:(Rng.create ~seed:99) ~samples (fun _rng share ->
              for _ = 1 to share do
                Metrics.incr c
              done;
              share)
          |> Array.fold_left ( + ) 0
        in
        Atomic.set stop true;
        let scrapes, bad = Domain.join scraper in
        Alcotest.(check int) "no malformed renders" 0 bad;
        Alcotest.(check bool) "scraped at least once" true (scrapes > 0);
        Alcotest.(check int) "fold saw every sample" samples total;
        Alcotest.(check int) "final counter exact" samples (Metrics.counter_value c)));
    Alcotest.test_case "live HTTP scrape during a parallel run" `Quick (fun () ->
      with_metrics (fun () ->
        let c = Metrics.counter ~help:"scraped live" "test_obs_live_total" in
        with_server (fun port ->
          let total =
            Par_fold.sample ~domains:2 ~rng:(Rng.create ~seed:7) ~samples:50_000
              (fun _rng share ->
                for _ = 1 to share do
                  Metrics.incr c
                done;
                share)
            |> Array.fold_left ( + ) 0
          in
          Alcotest.(check int) "all samples" 50_000 total;
          let status, body = http_request port "/metrics" in
          Alcotest.(check int) "200" 200 status;
          Alcotest.(check bool) "final total visible over HTTP" true
            (contains body "test_obs_live_total 50000"))));
    Alcotest.test_case "multi-domain histogram observe is exact and tear-free" `Quick (fun () ->
      with_metrics (fun () ->
        let bounds = [| 0.25; 0.5; 0.75 |] in
        let h = Metrics.histogram ~buckets:bounds "test_obs_mdh_seconds" in
        let n_domains = 4 and per_domain = 50_000 in
        let stop = Atomic.make false in
        (* Mid-run scraper: on every read the +Inf-cumulative bucket total
           must equal the reported count (tear-free by construction), and
           the count must never go backwards. *)
        let scraper =
          Domain.spawn (fun () ->
            let tears = ref 0 and regress = ref 0 and last = ref 0 and reads = ref 0 in
            while not (Atomic.get stop) do
              match Metrics.find "test_obs_mdh_seconds" with
              | Some { value = Metrics.Histogram_v { counts; count; _ }; _ } ->
                incr reads;
                if Array.fold_left ( + ) 0 counts <> count then incr tears;
                if count < !last then incr regress;
                last := count
              | _ -> ()
            done;
            (!reads, !tears, !regress))
        in
        let workers =
          List.init n_domains (fun d ->
            Domain.spawn (fun () ->
              (* deterministic per-domain values: every bucket, including
                 overflow, gets traffic *)
              for i = 0 to per_domain - 1 do
                Metrics.observe h (float_of_int ((i + d) mod 4) /. 4. +. 0.125)
              done))
        in
        List.iter Domain.join workers;
        Atomic.set stop true;
        let reads, tears, regress = Domain.join scraper in
        Alcotest.(check bool) "scraper read at least once" true (reads > 0);
        Alcotest.(check int) "no torn snapshots" 0 tears;
        Alcotest.(check int) "count never regressed" 0 regress;
        let total = n_domains * per_domain in
        Alcotest.(check int) "final count exact" total (Metrics.histogram_count h);
        (* values cycle uniformly over 0.125/0.375/0.625/0.875: every
           bucket (and the overflow slot) holds exactly total/4 *)
        Alcotest.(check (array int)) "final per-bucket counts exact"
          (Array.make 4 (total / 4))
          (Metrics.histogram_counts h);
        let expect_sum = float_of_int (total / 4) *. (0.125 +. 0.375 +. 0.625 +. 0.875) in
        Alcotest.(check (float 1e-6)) "sum survives concurrent CAS" expect_sum
          (Metrics.histogram_sum h)));
    Alcotest.test_case "concurrent gauge adds never lose an update" `Quick (fun () ->
      with_metrics (fun () ->
        let g = Metrics.gauge "test_obs_g_conc" in
        let n_domains = 4 and per_domain = 20_000 in
        let workers =
          List.init n_domains (fun _ ->
            Domain.spawn (fun () ->
              for _ = 1 to per_domain do
                Metrics.add_gauge g 1.
              done))
        in
        List.iter Domain.join workers;
        Alcotest.(check (float 0.)) "every add landed"
          (float_of_int (n_domains * per_domain))
          (Metrics.gauge_value g)));
    Alcotest.test_case "spans sees spans from joined workers" `Quick (fun () ->
      with_tracing (fun () ->
        let rng = Rng.create ~seed:3 in
        ignore (Mc.probability ~domains:2 ~rng ~samples:100 (fun rng ->
          Rng.float01 rng < 0.5));
        let rows = Trace.profile () in
        match List.find_opt (fun r -> r.Trace.p_name = "mc.par.lease") rows with
        | Some r -> Alcotest.(check int) "all leases visible" Par_fold.leases r.Trace.calls
        | None -> Alcotest.fail "no lease spans in live view"));
  ]

let integration_tests =
  [
    Alcotest.test_case "ddm eval --metrics json emits parseable JSON" `Quick (fun () ->
      (* Temp files, not the working directory: runtest used to litter the
         repo root with test_obs_eval_metrics.json(.err). *)
      let out = Filename.temp_file "test_obs_eval_metrics" ".json" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ out; out ^ ".err" ])
        (fun () ->
          let cmd =
            Printf.sprintf "%s eval -n 3 --samples 20000 --seed 7 --metrics json > %s 2> %s.err"
              (Filename.quote ddm_exe) (Filename.quote out) (Filename.quote out)
          in
          Alcotest.(check int) "exit code" 0 (Sys.command cmd);
          let lines =
            read_file out |> String.split_on_char '\n'
            |> List.filter (fun l -> String.length l > 0 && l.[0] = '{')
          in
          Alcotest.(check bool) "has metric lines" true (List.length lines > 3);
          List.iter
            (fun l -> Alcotest.(check bool) ("parses: " ^ l) true (json_valid l))
            lines;
          let mentions_samples =
            List.exists
              (fun l ->
                let needle = "\"name\":\"ddm_mc_samples_total\"" in
                let lh = String.length l and ln = String.length needle in
                let rec go i = i + ln <= lh && (String.sub l i ln = needle || go (i + 1)) in
                go 0)
              lines
          in
          Alcotest.(check bool) "reports MC samples" true mentions_samples));
    Alcotest.test_case "ddm rejects nonpositive sizes" `Quick (fun () ->
      let run args =
        Sys.command (Printf.sprintf "%s %s > /dev/null 2>&1" (Filename.quote ddm_exe) args)
      in
      Alcotest.(check bool) "--samples 0 fails" true (run "eval -n 3 --samples 0" <> 0);
      Alcotest.(check bool) "-n 0 fails" true (run "oblivious -n 0" <> 0);
      Alcotest.(check int) "valid run still passes" 0
        (run "eval -n 3 --samples 1000 --seed 1"));
    Alcotest.test_case "root-isolation counters keep their counts" `Quick (fun () ->
      (* One bisection is one probe and one Sturm chain is one chain, however
         the exact arithmetic underneath is organised. *)
      let counters args =
        let out = Filename.temp_file "test_obs_roots" ".prom" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
          (fun () ->
            let cmd =
              Printf.sprintf "%s %s --metrics prom > %s 2>&1" (Filename.quote ddm_exe) args
                (Filename.quote out)
            in
            Alcotest.(check int) (args ^ ": exit code") 0 (Sys.command cmd);
            read_file out |> String.split_on_char '\n'
            |> List.filter (String.starts_with ~prefix:"ddm_roots_"))
      in
      Alcotest.(check (list string)) "threshold -n 4 --delta 4/3"
        [ "ddm_roots_bisections_total 99"; "ddm_roots_sturm_chains_total 6" ]
        (counters "threshold -n 4 --delta 4/3");
      Alcotest.(check (list string)) "certify -n 3"
        [ "ddm_roots_bisections_total 126"; "ddm_roots_sturm_chains_total 4" ]
        (counters "certify -n 3"));
  ]

let () =
  Alcotest.run "obs"
    [
      ("json-validator", validator_tests);
      ("metrics", metric_tests);
      ("trace", trace_tests);
      ("export", export_tests);
      ("logx", logx_tests);
      ("chrome-trace", chrome_tests);
      ("httpd", httpd_tests);
      ("concurrency", concurrency_tests);
      ("integration", integration_tests);
    ]
