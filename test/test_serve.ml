(* Tests for the serve subsystem: the LRU and crash-safe cache store
   (including truncation at every byte offset and a real SIGKILL
   mid-write), the bounded shedding work queue, request parsing and
   cache keys, deadline-aware solving, the retry backoff schedule,
   ledger rotation, the hardened HTTP input limits, and the full service
   over real HTTP — deadlines, shedding, worker panics, chaos soak, and
   graceful drain, all defending the exactly-one-terminal-response
   invariant. *)

let check = Alcotest.check
let checkb msg expected actual = Alcotest.(check bool) msg expected actual

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* ------------------------- raw HTTP client ------------------------- *)

(* Send/receive split so several requests can be in flight at once from
   this single-threaded test. *)
let http_open ?(meth = "POST") ?(body = "") port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let req =
    Printf.sprintf "%s %s HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n%s" meth path
      (String.length body) body
  in
  let rec send off =
    if off < String.length req then
      send (off + Unix.write_substring fd req off (String.length req - off))
  in
  send 0;
  fd

let http_read fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let buf = Buffer.create 512 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
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
          else if String.sub raw i 4 = "\r\n\r\n" then
            Some (String.sub raw (i + 4) (String.length raw - i - 4))
          else find (i + 1)
        in
        Option.value ~default:"" (find 0)
      in
      (status, body))

let post ?body port path = http_read (http_open ?body port path)
let get port path = http_read (http_open ~meth:"GET" port path)

(* Raw variant: the full response bytes, status line and headers included,
   for tests that assert on headers (Retry-After). *)
let http_read_raw fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let buf = Buffer.create 512 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      in
      drain ();
      Buffer.contents buf)

let header_value raw name =
  let lower = String.lowercase_ascii raw in
  let needle = String.lowercase_ascii name ^ ": " in
  let rec find i =
    if i + String.length needle > String.length lower then None
    else if String.sub lower i (String.length needle) = needle && i > 0 && lower.[i - 1] = '\n'
    then
      let rest = String.sub raw (i + String.length needle)
          (String.length raw - i - String.length needle) in
      match String.index_opt rest '\r' with
      | Some e -> Some (String.sub rest 0 e)
      | None -> None
    else find (i + 1)
  in
  find 0

let with_serve cfg f =
  match Serve.start cfg with
  | Error msg -> Alcotest.fail ("serve did not start: " ^ msg)
  | Ok t -> Fun.protect ~finally:(fun () -> Serve.stop t) (fun () -> f t)

let json_exn body = Jsonx.parse_exn body

(* ------------------------------- LRU -------------------------------- *)

let lru_tests =
  [
    Alcotest.test_case "put/find/evict order" `Quick (fun () ->
      let l = Lru.create ~cap:2 in
      Lru.put l "a" 1;
      Lru.put l "b" 2;
      checkb "finds a" true (Lru.find l "a" = Some 1);
      (* a is now most recent; inserting c evicts b *)
      Lru.put l "c" 3;
      checkb "b evicted" true (Lru.find l "b" = None);
      checkb "a kept" true (Lru.find l "a" = Some 1);
      checkb "c kept" true (Lru.find l "c" = Some 3);
      check Alcotest.int "size" 2 (Lru.size l);
      check Alcotest.int "evictions" 1 (Lru.evictions l));
    Alcotest.test_case "overwrite refreshes" `Quick (fun () ->
      let l = Lru.create ~cap:2 in
      Lru.put l "a" 1;
      Lru.put l "b" 2;
      Lru.put l "a" 10;
      Lru.put l "c" 3;
      checkb "b evicted, refreshed a kept" true (Lru.find l "a" = Some 10 && Lru.find l "b" = None));
    Alcotest.test_case "rejects cap 0" `Quick (fun () ->
      Alcotest.check_raises "cap 0" (Invalid_argument "Lru.create: cap must be >= 1") (fun () ->
        ignore (Lru.create ~cap:0)));
  ]

(* ---------------------------- cache store --------------------------- *)

let sample_value i =
  Jsonx.Obj [ ("p", Jsonx.Num (0.5 +. (0.001 *. float_of_int i))); ("i", Jsonx.Num (float_of_int i)) ]

let store_tests =
  [
    Alcotest.test_case "roundtrip and reopen" `Quick (fun () ->
      let root = temp_dir "ddm_store" in
      (* the store dir may be nested under parents that don't exist yet *)
      let dir = Filename.concat (Filename.concat root "a") "b" in
      Fun.protect
        ~finally:(fun () -> rm_rf root)
        (fun () ->
          let s, r = Cache_store.open_store ~dir in
          check Alcotest.int "fresh store empty" 0 r.Cache_store.loaded;
          Cache_store.put s ~key:"k1" (sample_value 1);
          Cache_store.put s ~key:"k2" (sample_value 2);
          checkb "finds k1" true (Cache_store.find s "k1" = Some (sample_value 1));
          checkb "misses k3" true (Cache_store.find s "k3" = None);
          (* overwrite is atomic-in-place *)
          Cache_store.put s ~key:"k1" (sample_value 9);
          checkb "overwritten" true (Cache_store.find s "k1" = Some (sample_value 9));
          let s2, r2 = Cache_store.open_store ~dir in
          check Alcotest.int "reopen loads both" 2 r2.Cache_store.loaded;
          check Alcotest.int "reopen quarantines none" 0 r2.Cache_store.quarantined;
          checkb "persisted value" true (Cache_store.find s2 "k1" = Some (sample_value 9))));
    Alcotest.test_case "fnv64 is stable" `Quick (fun () ->
      (* pinned reference values of FNV-1a 64 *)
      check Alcotest.string "empty" "cbf29ce484222325" (Cache_store.fnv64 "");
      check Alcotest.string "a" "af63dc4c8601ec8c" (Cache_store.fnv64 "a");
      check Alcotest.string "foobar" "85944171f73967e8" (Cache_store.fnv64 "foobar"));
    Alcotest.test_case "truncation at every byte offset never serves" `Quick (fun () ->
      let dir = temp_dir "ddm_store" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let s, _ = Cache_store.open_store ~dir in
          Cache_store.put s ~key:"the-key" (sample_value 42);
          let name =
            match Array.to_list (Sys.readdir dir) with
            | entries -> (
              match List.find_opt (fun n -> Filename.check_suffix n ".entry") entries with
              | Some n -> n
              | None -> Alcotest.fail "no entry file written")
          in
          let full = read_file (Filename.concat dir name) in
          let size = String.length full in
          for cut = 0 to size - 1 do
            let dir2 = temp_dir "ddm_store_cut" in
            Fun.protect
              ~finally:(fun () -> rm_rf dir2)
              (fun () ->
                write_file (Filename.concat dir2 name) (String.sub full 0 cut);
                let s2, r2 = Cache_store.open_store ~dir:dir2 in
                (* a truncated entry must never be indexed, at any cut *)
                check Alcotest.int
                  (Printf.sprintf "cut at %d loads nothing" cut)
                  0 r2.Cache_store.loaded;
                check Alcotest.int
                  (Printf.sprintf "cut at %d quarantined" cut)
                  1 r2.Cache_store.quarantined;
                checkb "find misses" true (Cache_store.find s2 "the-key" = None);
                checkb "moved to quarantine" true
                  (Sys.file_exists (Filename.concat (Filename.concat dir2 "quarantine") name)))
          done;
          (* and the full file still loads *)
          let s3, r3 = Cache_store.open_store ~dir in
          check Alcotest.int "full entry loads" 1 r3.Cache_store.loaded;
          checkb "full entry serves" true (Cache_store.find s3 "the-key" = Some (sample_value 42))));
    Alcotest.test_case "flipped checksum byte quarantines" `Quick (fun () ->
      let dir = temp_dir "ddm_store" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let s, _ = Cache_store.open_store ~dir in
          Cache_store.put s ~key:"k" (sample_value 7);
          let name =
            match
              List.find_opt
                (fun n -> Filename.check_suffix n ".entry")
                (Array.to_list (Sys.readdir dir))
            with
            | Some n -> n
            | None -> Alcotest.fail "no entry"
          in
          let path = Filename.concat dir name in
          let full = read_file path in
          (* corrupt one payload byte; header checksum now disagrees *)
          let b = Bytes.of_string full in
          Bytes.set b (String.length full - 2)
            (if Bytes.get b (String.length full - 2) = 'x' then 'y' else 'x');
          write_file path (Bytes.to_string b);
          let _, r = Cache_store.open_store ~dir in
          check Alcotest.int "quarantined" 1 r.Cache_store.quarantined));
    Alcotest.test_case "torn temp files are swept" `Quick (fun () ->
      let dir = temp_dir "ddm_store" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let s, _ = Cache_store.open_store ~dir in
          Cache_store.put s ~key:"k" (sample_value 1);
          write_file (Filename.concat dir ".tmp-ejunk.entry") "half a wri";
          let _, r = Cache_store.open_store ~dir in
          check Alcotest.int "tmp removed" 1 r.Cache_store.tmp_removed;
          check Alcotest.int "entry survived" 1 r.Cache_store.loaded;
          checkb "tmp gone from disk" false
            (Sys.file_exists (Filename.concat dir ".tmp-ejunk.entry"))));
    Alcotest.test_case "injected disk fault leaves only a torn temp" `Quick (fun () ->
      let dir = temp_dir "ddm_store" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let s, _ = Cache_store.open_store ~dir in
          Cache_store.put s ~key:"good" (sample_value 1);
          (try
             Cache_store.put ~chaos_fail:true s ~key:"bad" (sample_value 2);
             Alcotest.fail "chaos write should raise"
           with Sys_error _ -> ());
          checkb "failed key not served" true (Cache_store.find s "bad" = None);
          checkb "existing key untouched" true (Cache_store.find s "good" = Some (sample_value 1));
          let _, r = Cache_store.open_store ~dir in
          check Alcotest.int "recovery sweeps the torn temp" 1 r.Cache_store.tmp_removed;
          check Alcotest.int "good entry loads" 1 r.Cache_store.loaded;
          check Alcotest.int "nothing quarantined" 0 r.Cache_store.quarantined));
    Alcotest.test_case "SIGKILL mid-write: recovery classifies everything" `Quick (fun () ->
      let dir = temp_dir "ddm_store" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          (* a child process writes entries as fast as it can until it is
             hard-killed; the parent then runs recovery over the carnage *)
          let big = String.make 4096 'z' in
          match Unix.fork () with
          | 0 ->
            (* child: never returns *)
            (try
               let s, _ = Cache_store.open_store ~dir in
               let i = ref 0 in
               while true do
                 Cache_store.put s
                   ~key:(Printf.sprintf "k%d" !i)
                   (Jsonx.Obj [ ("i", Jsonx.Num (float_of_int !i)); ("pad", Jsonx.Str big) ]);
                 incr i
               done
             with _ -> ());
            Unix._exit 0
          | pid ->
            Unix.sleepf 0.3;
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            let s, r = Cache_store.open_store ~dir in
            checkb "child got some writes out" true (r.Cache_store.loaded > 0);
            (* the process was killed, not the machine: completed renames
               are intact, so nothing should be quarantined — the only
               debris is at most one torn temp *)
            check Alcotest.int "no quarantined entries" 0 r.Cache_store.quarantined;
            checkb "at most one torn temp" true (r.Cache_store.tmp_removed <= 1);
            checkb "no temp files survive recovery" true
              (Array.for_all
                 (fun n -> not (String.length n >= 5 && String.sub n 0 5 = ".tmp-"))
                 (Sys.readdir dir));
            (* every indexed entry round-trips with the right value *)
            for i = 0 to r.Cache_store.loaded - 1 do
              let key = Printf.sprintf "k%d" i in
              match Cache_store.find s key with
              | Some j ->
                checkb
                  (Printf.sprintf "entry %d content" i)
                  true
                  (Jsonx.float_member "i" j = Some (float_of_int i))
              | None -> Alcotest.fail (Printf.sprintf "entry %s lost by recovery" key)
            done));
  ]

(* ------------------------------ workq ------------------------------- *)

let workq_tests =
  [
    Alcotest.test_case "watermark sheds, close drains" `Quick (fun () ->
      let q = Workq.create ~depth:2 in
      checkb "first accepted" true (Workq.push q 1 = Workq.Accepted 1);
      checkb "second accepted" true (Workq.push q 2 = Workq.Accepted 2);
      checkb "third shed" true (Workq.push q 3 = Workq.Shed);
      check Alcotest.int "depth" 2 (Workq.depth q);
      Workq.close q;
      checkb "closed rejects" true (Workq.push q 4 = Workq.Closed);
      checkb "queued survive close" true (Workq.pop q ~timeout_s:0.1 = Workq.Job 1);
      checkb "fifo" true (Workq.pop q ~timeout_s:0.1 = Workq.Job 2);
      checkb "then drained" true (Workq.pop q ~timeout_s:0.1 = Workq.Drained));
    Alcotest.test_case "pop times out empty" `Quick (fun () ->
      let q = Workq.create ~depth:1 in
      let t0 = Unix.gettimeofday () in
      checkb "empty" true (Workq.pop q ~timeout_s:0.05 = Workq.Empty);
      checkb "waited" true (Unix.gettimeofday () -. t0 >= 0.04));
    Alcotest.test_case "drain_remaining empties" `Quick (fun () ->
      let q = Workq.create ~depth:8 in
      ignore (Workq.push q 1);
      ignore (Workq.push q 2);
      checkb "drained all" true (Workq.drain_remaining q = [ 1; 2 ]);
      check Alcotest.int "empty after" 0 (Workq.depth q));
  ]

(* ------------------------------ solver ------------------------------ *)

let parse_ok body =
  match Solver.parse body with
  | Ok r -> r
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let parse_err body =
  match Solver.parse body with Ok _ -> Alcotest.fail "parse should fail" | Error e -> e

let solver_tests =
  [
    Alcotest.test_case "parse defaults and validation" `Quick (fun () ->
      let r = parse_ok "{\"rule\":\"oblivious\",\"n\":4}" in
      checkb "default delta n/3" true (Rat.equal r.Solver.delta (Rat.of_ints 4 3));
      checkb "default params 1/2" true (r.Solver.params = [| 0.5; 0.5; 0.5; 0.5 |]);
      checkb "scalar params expand" true
        ((parse_ok "{\"rule\":\"threshold\",\"n\":3,\"params\":0.62}").Solver.params
        = [| 0.62; 0.62; 0.62 |]);
      ignore (parse_err "{\"rule\":\"magic\",\"n\":3}");
      ignore (parse_err "{\"rule\":\"threshold\"}");
      ignore (parse_err "{\"rule\":\"threshold\",\"n\":0}");
      ignore (parse_err "{\"rule\":\"threshold\",\"n\":3,\"params\":[0.5,0.5]}");
      ignore (parse_err "{\"rule\":\"threshold\",\"n\":3,\"params\":1.5}");
      ignore (parse_err "{\"rule\":\"threshold\",\"n\":3,\"crash\":0.1}");
      ignore (parse_err "{\"rule\":\"opt\",\"n\":3,\"mode\":\"grid\"}");
      ignore (parse_err "{\"rule\":\"opt\",\"n\":3,\"crash\":0.5}");
      let e = parse_err "{\"rule\":\"threshold\",\"n\":15,\"mode\":\"exact\"}" in
      checkb "O(3^n) cap points at grid mode" true (contains e "grid");
      ignore (parse_err "not json at all"));
    Alcotest.test_case "cache key identity" `Quick (fun () ->
      let a = parse_ok "{\"rule\":\"threshold\",\"n\":3,\"params\":0.62}" in
      let b = parse_ok "{\"rule\":\"threshold\",\"n\":3,\"params\":[0.62]}" in
      let c = parse_ok "{\"rule\":\"threshold\",\"n\":3,\"params\":[0.62,0.62,0.62]}" in
      checkb "scalar = 1-vector" true (Solver.cache_key a = Solver.cache_key b);
      checkb "= n-vector" true (Solver.cache_key a = Solver.cache_key c);
      let d = parse_ok "{\"rule\":\"threshold\",\"n\":3,\"params\":0.63}" in
      checkb "params distinguish" true (Solver.cache_key a <> Solver.cache_key d);
      let e = parse_ok "{\"rule\":\"threshold\",\"n\":3,\"params\":0.62,\"budget_ms\":17}" in
      checkb "budget not in key" true (Solver.cache_key a = Solver.cache_key e));
    Alcotest.test_case "solve matches direct evaluators" `Quick (fun () ->
      let far = Trace.now_mono_s () +. 60. in
      let r = parse_ok "{\"rule\":\"oblivious\",\"n\":4,\"delta\":\"4/3\"}" in
      let a = Solver.solve ~deadline_mono_s:far r in
      let expect =
        Oblivious.winning_probability ~delta:(Rat.to_float (Rat.of_ints 4 3)) (Array.make 4 0.5)
      in
      checkb "oblivious exact" true (Float.abs (a.Solver.p -. expect) < 1e-12);
      let r = parse_ok "{\"rule\":\"opt\",\"n\":3,\"delta\":\"1\"}" in
      let a = Solver.solve ~deadline_mono_s:far r in
      let res = Symbolic.optimal_sym_threshold ~n:3 ~delta:Rat.one () in
      checkb "opt value" true
        (Float.abs (a.Solver.p -. Rat.to_float res.Piecewise.value) < 1e-12);
      checkb "opt exposes beta*" true
        (List.mem_assoc "beta_star_exact" a.Solver.detail));
    Alcotest.test_case "mc mode: parse, cache key, deterministic kernel solve" `Quick (fun () ->
      let far = Trace.now_mono_s () +. 60. in
      (* defaults: 100k samples, seed 42 *)
      let r = parse_ok "{\"rule\":\"threshold\",\"n\":3,\"params\":0.62,\"mode\":\"mc\"}" in
      (match r.Solver.mode with
      | Solver.Mc { samples; seed } ->
        check Alcotest.int "default samples" 100_000 samples;
        check Alcotest.int "default seed" 42 seed
      | _ -> Alcotest.fail "mode should be mc");
      (* validation: samples/seed belong to mc, opt is exact-only, caps hold *)
      ignore (parse_err "{\"rule\":\"threshold\",\"n\":3,\"samples\":1000}");
      ignore (parse_err "{\"rule\":\"threshold\",\"n\":3,\"seed\":7}");
      ignore (parse_err "{\"rule\":\"opt\",\"n\":3,\"mode\":\"mc\"}");
      ignore (parse_err "{\"rule\":\"threshold\",\"n\":3,\"mode\":\"mc\",\"points\":16}");
      ignore
        (parse_err "{\"rule\":\"threshold\",\"n\":3,\"mode\":\"mc\",\"samples\":3000000}");
      (* crash > 0 is now satisfiable by mc as well as grid *)
      ignore (parse_ok "{\"rule\":\"threshold\",\"n\":3,\"mode\":\"mc\",\"crash\":0.1}");
      let e = parse_err "{\"rule\":\"threshold\",\"n\":3,\"crash\":0.1}" in
      checkb "exact-mode crash error names both escapes" true
        (contains e "grid" && contains e "mc");
      (* the cache key pins (samples, seed) and ignores the budget *)
      let k b = Solver.cache_key (parse_ok b) in
      checkb "samples in key" true
        (k "{\"rule\":\"threshold\",\"n\":3,\"mode\":\"mc\",\"samples\":1000}"
        <> k "{\"rule\":\"threshold\",\"n\":3,\"mode\":\"mc\",\"samples\":2000}");
      checkb "seed in key" true
        (k "{\"rule\":\"threshold\",\"n\":3,\"mode\":\"mc\",\"seed\":1}"
        <> k "{\"rule\":\"threshold\",\"n\":3,\"mode\":\"mc\",\"seed\":2}");
      checkb "budget not in key" true
        (k "{\"rule\":\"threshold\",\"n\":3,\"mode\":\"mc\"}"
        = k "{\"rule\":\"threshold\",\"n\":3,\"mode\":\"mc\",\"budget_ms\":9}");
      (* seed-pinned estimates: byte-stable across repeat solves and across
         the server's -j setting (an estimate depends on seed, leases and
         samples only), statistically consistent with the closed form *)
      let solve ?domains () =
        Solver.solve ?domains ~deadline_mono_s:far
          (parse_ok "{\"rule\":\"threshold\",\"n\":3,\"params\":0.62,\"mode\":\"mc\"}")
      in
      let a = solve () and b = solve () and c = solve ~domains:4 () in
      checkb "repeat solves identical" true (a.Solver.p = b.Solver.p);
      checkb "domains-independent" true (a.Solver.p = c.Solver.p);
      let exact = Threshold.winning_probability_sym ~n:3 ~delta:1. 0.62 in
      let ci l =
        match List.assoc_opt l a.Solver.detail with
        | Some (Jsonx.Num v) -> v
        | _ -> Alcotest.fail (l ^ " missing from detail")
      in
      checkb "closed form inside the reported CI" true
        (ci "ci_lo" <= exact && exact <= ci "ci_hi");
      check Alcotest.int "samples echoed" 100_000 (int_of_float (ci "samples"));
      (* the crash variant routes through the fault kernel and stays within
         its exact 64-point fold allowance *)
      let rc =
        parse_ok
          "{\"rule\":\"threshold\",\"n\":3,\"params\":0.62,\"mode\":\"mc\",\"crash\":0.2,\"samples\":120000}"
      in
      let ac = Solver.solve ~deadline_mono_s:far rc in
      let fold =
        Engine.win_probability_grid ~points:64 ~faults:(Fault_model.crash_only 0.2) ~delta:1.
          (Comm_pattern.none ~n:3)
          (Dist_protocol.single_threshold (Array.make 3 0.62))
      in
      checkb "crash mc near the exact fold" true (Float.abs (ac.Solver.p -. fold) < 0.02));
    Alcotest.test_case "one cache key, one answer at every domains" `Quick (fun () ->
      (* the answer cached under a key must not depend on the server's
         --solver-jobs: the default and every domains value agree bit for
         bit on the threshold fold, the crash grid and the mc kernel; the
         mc answers are pinned, because a v2| key promises them unchanged *)
      let far = Trace.now_mono_s () +. 60. in
      List.iter
        (fun (body, pinned) ->
          let r = parse_ok body in
          let p0 = (Solver.solve ~deadline_mono_s:far r).Solver.p in
          Option.iter
            (fun v -> checkb (Printf.sprintf "%s pinned: %.17g" body p0) true (p0 = v))
            pinned;
          List.iter
            (fun domains ->
              let p = (Solver.solve ~domains ~deadline_mono_s:far r).Solver.p in
              checkb (Printf.sprintf "%s at domains %d: %h = %h" body domains p p0) true
                (Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float p0)))
            [ 1; 2; 4 ])
        [ ( {|{"rule":"threshold","n":8,"delta":"3/2",|}
            ^ {|"params":[0.31,0.62,0.44,0.7,0.52,0.28,0.66,0.41]}|},
            None );
          ( {|{"rule":"oblivious","n":3,"delta":"1","params":[0.41,0.62,0.55],|}
            ^ {|"mode":"grid","points":24,"crash":0.1}|},
            None );
          ( {|{"rule":"threshold","n":3,"delta":"1","params":[0.62,0.62,0.62],|}
            ^ {|"mode":"mc","samples":200000,"seed":42}|},
            Some 0.542825 );
          ( {|{"rule":"oblivious","n":5,"delta":"5/3","params":[0.5,0.5,0.5,0.5,0.5],|}
            ^ {|"mode":"mc","samples":100000,"seed":7,"crash":0.1}|},
            Some 0.56881999999999999 ) ]);
    Alcotest.test_case "answer json roundtrip" `Quick (fun () ->
      let a = { Solver.p = 0.625; detail = [ ("beta_star", Jsonx.Num 0.5) ] } in
      match Solver.answer_of_json (Solver.answer_to_json a) with
      | Ok b -> checkb "roundtrip" true (a = b)
      | Error e -> Alcotest.fail e);
    Alcotest.test_case "expired deadline cancels before and during" `Quick (fun () ->
      let r = parse_ok "{\"rule\":\"opt\",\"n\":3}" in
      (try
         ignore (Solver.solve ~deadline_mono_s:(Trace.now_mono_s () -. 1.) r);
         Alcotest.fail "should cancel"
       with Engine.Cancelled { cells_done; _ } -> check Alcotest.int "no cells" 0 cells_done);
      let r = parse_ok "{\"rule\":\"threshold\",\"n\":3,\"points\":200}" in
      try
        ignore (Solver.solve ~deadline_mono_s:(Trace.now_mono_s () +. 0.05) r);
        Alcotest.fail "grid should cancel mid-sweep"
      with Engine.Cancelled { cells_done; cells_total } ->
        check Alcotest.int "total cells" (200 * 200 * 200) cells_total;
        checkb "partial progress" true (cells_done > 0 && cells_done < cells_total));
  ]

(* --------------------- engine cancel + backoff ---------------------- *)

let engine_tests =
  [
    Alcotest.test_case "grid cancel carries exact progress" `Quick (fun () ->
      let pat = Comm_pattern.none ~n:3 in
      let proto = Dist_protocol.common_threshold ~n:3 0.62 in
      let calls = ref 0 in
      let cancel () =
        incr calls;
        !calls > 10
      in
      (try
         ignore (Engine.win_probability_grid ~points:4 ~cancel ~delta:1. pat proto);
         Alcotest.fail "should cancel"
       with Engine.Cancelled { cells_done; cells_total } ->
         check Alcotest.int "cells done" 10 cells_done;
         check Alcotest.int "cells total" 64 cells_total);
      (* the crash-fold grid shares the contract *)
      let calls = ref 0 in
      let cancel () =
        incr calls;
        !calls > 5
      in
      try
        ignore
          (Engine.win_probability_grid ~points:4 ~cancel ~faults:(Fault_model.crash_only 0.1)
             ~delta:1. pat proto);
        Alcotest.fail "faults grid should cancel"
      with Engine.Cancelled { cells_done; cells_total } ->
        check Alcotest.int "fault cells done" 5 cells_done;
        check Alcotest.int "fault cells total" 64 cells_total);
    Alcotest.test_case "no-cancel results unchanged" `Quick (fun () ->
      let pat = Comm_pattern.none ~n:3 in
      let proto = Dist_protocol.common_threshold ~n:3 0.62 in
      let a = Engine.win_probability_grid ~points:8 ~delta:1. pat proto in
      let b = Engine.win_probability_grid ~points:8 ~cancel:(fun () -> false) ~delta:1. pat proto in
      checkb "identical" true (a = b));
    Alcotest.test_case "backoff schedule is pinned by seed" `Quick (fun () ->
      (* pure exponential with cap *)
      checkb "pure" true
        (Engine.backoff_schedule ~base_s:0.1 ~attempts:4 () = [ 0.1; 0.2; 0.4 ]);
      checkb "capped" true
        (Engine.backoff_schedule ~base_s:0.1 ~max_s:0.25 ~attempts:4 () = [ 0.1; 0.2; 0.25 ]);
      (* jittered: deterministic function of the seed — recompute the
         exact expectation from a twin RNG *)
      let sched =
        Engine.backoff_schedule ~base_s:0.1 ~jitter:(Rng.create ~seed:5) ~attempts:4 ()
      in
      let twin = Rng.create ~seed:5 in
      let expected =
        List.map
          (fun raw -> raw *. (0.5 +. (0.5 *. Rng.float01 twin)))
          [ 0.1; 0.2; 0.4 ]
      in
      checkb "jitter pinned" true (sched = expected);
      checkb "same seed, same schedule" true
        (Engine.backoff_schedule ~base_s:0.1 ~jitter:(Rng.create ~seed:5) ~attempts:4 () = sched);
      (* jitter scales into [raw/2, raw) *)
      List.iter2
        (fun d raw -> checkb "jitter range" true (d >= raw /. 2. && d < raw))
        sched [ 0.1; 0.2; 0.4 ];
      Alcotest.check_raises "bad base" (Invalid_argument "Engine.backoff_delay: base_s must be positive")
        (fun () -> ignore (Engine.backoff_delay ~base_s:0. 0)));
    Alcotest.test_case "retry_under spaces retries with backoff" `Quick (fun () ->
      let always_fails =
        Dist_protocol.make ~name:"boom" (fun _ -> failwith "no")
      in
      let view = { Dist_protocol.me = 0; own = 0.5; others = [] } in
      (* three attempts with 30ms then 60ms between: elapsed >= 90ms *)
      let p = Engine.retry_under ~deadline_s:5. ~attempts:3 ~backoff:0.03 always_fails in
      let t0 = Unix.gettimeofday () in
      let v = Dist_protocol.decide p view in
      let dt = Unix.gettimeofday () -. t0 in
      checkb "fell back to default" true (v = 0.5);
      checkb "slept both delays" true (dt >= 0.085);
      (* a delay that would overrun the deadline is forfeited, not slept *)
      let p = Engine.retry_under ~deadline_s:0.02 ~attempts:3 ~backoff:0.5 always_fails in
      let t0 = Unix.gettimeofday () in
      ignore (Dist_protocol.decide p view);
      checkb "forfeits oversized delay" true (Unix.gettimeofday () -. t0 < 0.3));
  ]

(* --------------------------- ledger rotation ------------------------ *)

let ledger_entry i =
  {
    Ledger.timestamp_s = float_of_int i;
    command = "test";
    argv = [ string_of_int i ];
    seed = None;
    rev = None;
    wall_seconds = 0.;
    gc = Ledger.gc_delta ~before:(Ledger.gc_now ()) ~after:(Ledger.gc_now ());
    metrics = Jsonx.Null;
  }

let ledger_tests =
  [
    Alcotest.test_case "size rotation keeps entries readable across the boundary" `Quick
      (fun () ->
      let file = Filename.temp_file "ddm_ledger" ".jsonl" in
      Sys.remove file;
      Fun.protect
        ~finally:(fun () ->
          (try Sys.remove file with Sys_error _ -> ());
          try Sys.remove (Ledger.rotated_name file) with Sys_error _ -> ())
        (fun () ->
          (* append until the first rotation fires, then keep going: one
             generation behind us, a fresh live file in front *)
          let rotate_above = 600 in
          let n = ref 0 in
          while (not (Sys.file_exists (Ledger.rotated_name file))) && !n < 50 do
            incr n;
            Ledger.append ~rotate_above ~file (ledger_entry !n)
          done;
          checkb "rotation fired" true (Sys.file_exists (Ledger.rotated_name file));
          Ledger.append ~rotate_above ~file (ledger_entry (!n + 1));
          Ledger.append ~rotate_above ~file (ledger_entry (!n + 2));
          let total = !n + 2 in
          let entries, skipped = Ledger.load_rotated ~file in
          check Alcotest.int "nothing skipped" 0 skipped;
          check Alcotest.int "every entry readable across the boundary" total
            (List.length entries);
          checkb "in chronological order" true
            (List.map (fun e -> e.Ledger.argv) entries
            = List.init total (fun i -> [ string_of_int (i + 1) ]));
          (* /runs reads through the same path, so the live file staying
             bounded is what keeps a long-running server's footprint flat *)
          checkb "live file bounded" true
            ((Unix.stat file).Unix.st_size < 2 * rotate_above + 400)));
    Alcotest.test_case "load_rotated without rotation = load" `Quick (fun () ->
      let file = Filename.temp_file "ddm_ledger" ".jsonl" in
      Sys.remove file;
      Fun.protect
        ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          Ledger.append ~file (ledger_entry 1);
          checkb "no rotation happened" false (Sys.file_exists (Ledger.rotated_name file));
          checkb "loads the entry" true
            (fst (Ledger.load_rotated ~file) = fst (Ledger.load ~file))));
  ]

(* ------------------------- httpd input limits ----------------------- *)

let tiny_limits =
  {
    Httpd.max_line_bytes = 128;
    max_header_bytes = 256;
    max_body_bytes = 64;
    read_deadline_s = 0.5;
    read_timeout_s = 0.3;
  }

let with_tiny_httpd f =
  match Httpd.start ~limits:tiny_limits ~port:0 () with
  | Error msg -> Alcotest.fail ("httpd did not start: " ^ msg)
  | Ok server -> Fun.protect ~finally:(fun () -> Httpd.stop server) (fun () -> f (Httpd.port server))

let raw_send_recv port payload =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let rec send off =
    if off < String.length payload then
      send (off + Unix.write_substring fd payload off (String.length payload - off))
  in
  send 0;
  http_read fd

let httpd_limit_tests =
  [
    Alcotest.test_case "oversized request line is 431" `Quick (fun () ->
      with_tiny_httpd (fun port ->
        let status, _ =
          raw_send_recv port
            (Printf.sprintf "GET /%s HTTP/1.1\r\nHost: t\r\n\r\n" (String.make 300 'a'))
        in
        check Alcotest.int "431" 431 status));
    Alcotest.test_case "oversized header block is 431" `Quick (fun () ->
      with_tiny_httpd (fun port ->
        let headers =
          String.concat "" (List.init 20 (fun i -> Printf.sprintf "X-Pad-%02d: %s\r\n" i (String.make 20 'p')))
        in
        let status, _ =
          raw_send_recv port (Printf.sprintf "GET /healthz HTTP/1.1\r\n%s\r\n" headers)
        in
        check Alcotest.int "431" 431 status));
    Alcotest.test_case "oversized declared body is 413" `Quick (fun () ->
      with_tiny_httpd (fun port ->
        let status, _ =
          raw_send_recv port "POST /eval HTTP/1.1\r\nHost: t\r\nContent-Length: 4096\r\n\r\n"
        in
        check Alcotest.int "413" 413 status));
    Alcotest.test_case "dribbled request hits the read deadline (408)" `Quick (fun () ->
      with_tiny_httpd (fun port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let t0 = Unix.gettimeofday () in
        (* slowloris: a byte at a time, never finishing the request *)
        (try
           String.iter
             (fun c ->
               ignore (Unix.write_substring fd (String.make 1 c) 0 1);
               Unix.sleepf 0.1)
             "GET /healthz HT"
         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
        let status, _ = http_read fd in
        let dt = Unix.gettimeofday () -. t0 in
        check Alcotest.int "408" 408 status;
        checkb "cut off near the deadline" true (dt < 3.0)));
    Alcotest.test_case "well-formed request still fine under tiny limits" `Quick (fun () ->
      with_tiny_httpd (fun port ->
        check Alcotest.int "healthz" 200 (fst (get port "/healthz"))));
  ]

(* --------------------------- serve end to end ----------------------- *)

let eval_req = "{\"rule\":\"oblivious\",\"n\":4,\"delta\":\"4/3\"}"

let stats t =
  match Jsonx.parse (Serve.stats_json t) with
  | Ok j -> j
  | Error e -> Alcotest.fail ("stats json: " ^ e)

let stat_int path j =
  let rec go j = function
    | [] -> Jsonx.to_int_opt j
    | k :: rest -> ( match Jsonx.member k j with Some j -> go j rest | None -> None)
  in
  match go j path with
  | Some v -> v
  | None -> Alcotest.fail ("missing stat " ^ String.concat "." path)

let stat_float path j =
  let rec go j = function
    | [] -> Jsonx.to_float_opt j
    | k :: rest -> ( match Jsonx.member k j with Some j -> go j rest | None -> None)
  in
  match go j path with
  | Some v -> v
  | None -> Alcotest.fail ("missing stat " ^ String.concat "." path)

let serve_tests =
  [
    Alcotest.test_case "solve, cache tiers, restart survives" `Quick (fun () ->
      let dir = temp_dir "ddm_serve" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let cfg = { Serve.default_config with Serve.cache_dir = Some dir } in
          let first =
            with_serve cfg (fun t ->
              let status, body = post ~body:eval_req (Serve.port t) "/eval" in
              check Alcotest.int "cold 200" 200 status;
              let j = json_exn body in
              checkb "cold misses" true (Jsonx.member "cached" j = Some (Jsonx.Bool false));
              let expect =
                Oblivious.winning_probability
                  ~delta:(Rat.to_float (Rat.of_ints 4 3))
                  (Array.make 4 0.5)
              in
              let p = Option.get (Jsonx.float_member "p" j) in
              checkb "matches direct evaluator" true (Float.abs (p -. expect) < 1e-12);
              let _, body2 = post ~body:eval_req (Serve.port t) "/eval" in
              let j2 = json_exn body2 in
              checkb "warm hits lru" true
                (Jsonx.member "cached" j2 = Some (Jsonx.Bool true)
                && Jsonx.string_member "source" j2 = Some "lru");
              p)
          in
          (* a fresh process-equivalent: new serve over the same dir — the
             answer must come from the durable tier, same value *)
          with_serve { Serve.default_config with Serve.cache_dir = Some dir } (fun t ->
            let status, body = post ~body:eval_req (Serve.port t) "/eval" in
            check Alcotest.int "restart 200" 200 status;
            let j = json_exn body in
            checkb "restart hits disk" true
              (Jsonx.member "cached" j = Some (Jsonx.Bool true)
              && Jsonx.string_member "source" j = Some "disk");
            checkb "same answer" true
              (Float.abs (Option.get (Jsonx.float_member "p" j) -. first) < 1e-15);
            let _, body2 = post ~body:eval_req (Serve.port t) "/eval" in
            checkb "promoted to lru" true
              (Jsonx.string_member "source" (json_exn body2) = Some "lru"))));
    Alcotest.test_case "repeat opt query never re-enters the symbolic pipeline" `Quick (fun () ->
      with_serve Serve.default_config (fun t ->
        let body = "{\"rule\":\"opt\",\"n\":3,\"delta\":\"1\"}" in
        let s1, _ = post ~body (Serve.port t) "/eval" in
        check Alcotest.int "cold opt" 200 s1;
        let s2, b2 = post ~body (Serve.port t) "/eval" in
        check Alcotest.int "warm opt" 200 s2;
        checkb "cached" true (Jsonx.member "cached" (json_exn b2) = Some (Jsonx.Bool true));
        check Alcotest.int "solved exactly once" 1 (stat_int [ "solved" ] (stats t))));
    Alcotest.test_case "deadline expiry answers 504 within budget + eps" `Quick (fun () ->
      with_serve Serve.default_config (fun t ->
        (* 8M-cell sweep, 150ms budget: must cancel cooperatively *)
        let body = "{\"rule\":\"threshold\",\"n\":3,\"points\":200,\"budget_ms\":150}" in
        let t0 = Unix.gettimeofday () in
        let status, resp = post ~body (Serve.port t) "/eval" in
        let dt = Unix.gettimeofday () -. t0 in
        check Alcotest.int "504" 504 status;
        checkb "within budget + eps" true (dt < 0.15 +. 0.6);
        let j = json_exn resp in
        checkb "names the deadline" true (Jsonx.string_member "error" j = Some "deadline");
        let prog = Option.get (Jsonx.member "progress" j) in
        let done_ = Option.get (Jsonx.int_member "cells_done" prog) in
        let total = Option.get (Jsonx.int_member "cells_total" prog) in
        check Alcotest.int "total cells" (200 * 200 * 200) total;
        checkb "partial progress reported" true (done_ > 0 && done_ < total)));
    Alcotest.test_case "saturation sheds 429 while in-flight completes" `Quick (fun () ->
      let cfg =
        {
          Serve.default_config with
          Serve.workers = 1;
          queue_depth = 2;
          chaos =
            Some
              { Serve.slow_rate = 1.0; slow_s = 0.3; panic_rate = 0.; diskfail_rate = 0.; seed = 3 };
        }
      in
      with_serve cfg (fun t ->
        let bodies =
          List.init 6 (fun i ->
            Printf.sprintf "{\"rule\":\"threshold\",\"n\":3,\"params\":%.3f}"
              (0.30 +. (0.01 *. float_of_int i)))
        in
        let fds = List.map (fun b -> http_open ~body:b (Serve.port t) "/eval") bodies in
        let results = List.map http_read fds in
        let count c = List.length (List.filter (fun (s, _) -> s = c) results) in
        checkb "every request got exactly one terminal response" true
          (count 200 + count 429 = 6);
        (* one in flight + a depth-2 queue: 2 or 3 accepted depending on
           when the worker first pops, the rest shed *)
        checkb "accepted complete" true (count 200 >= 2);
        checkb "excess shed" true (count 429 >= 3);
        List.iter
          (fun (s, b) ->
            if s = 429 then
              checkb "shed names overload" true
                (Jsonx.string_member "error" (json_exn b) = Some "overloaded"))
          results;
        let j = stats t in
        check Alcotest.int "terminal = accepted" (stat_int [ "accepted" ] j)
          (stat_int [ "terminal"; "deferred" ] j);
        check Alcotest.int "nothing suppressed" 0 (stat_int [ "terminal"; "suppressed" ] j)));
    Alcotest.test_case "worker panic: watchdog answers 500 and respawns" `Quick (fun () ->
      let cfg =
        {
          Serve.default_config with
          Serve.workers = 1;
          chaos =
            Some
              { Serve.slow_rate = 0.; slow_s = 0.; panic_rate = 1.0; diskfail_rate = 0.; seed = 3 };
        }
      in
      with_serve cfg (fun t ->
        let s1, b1 = post ~body:eval_req (Serve.port t) "/eval" in
        check Alcotest.int "orphan answered 500" 500 s1;
        checkb "names worker failure" true
          (Jsonx.string_member "error" (json_exn b1) = Some "worker_failure");
        (* the pool was re-staffed: the next request is answered too *)
        let s2, _ = post ~body:eval_req (Serve.port t) "/eval" in
        check Alcotest.int "second orphan answered" 500 s2;
        (* the watchdog answers 500 before it finishes re-staffing, so
           give it a beat to record the respawn *)
        let rec settle tries =
          let j = stats t in
          if stat_int [ "workers"; "respawns" ] j >= 2 || tries = 0 then j
          else (
            Unix.sleepf 0.05;
            settle (tries - 1))
        in
        let j = settle 40 in
        checkb "respawns counted" true (stat_int [ "workers"; "respawns" ] j >= 2);
        check Alcotest.int "pool at strength" 1 (stat_int [ "workers"; "pool" ] j);
        check Alcotest.int "terminal = accepted" (stat_int [ "accepted" ] j)
          (stat_int [ "terminal"; "deferred" ] j)));
    Alcotest.test_case "chaos soak: exactly-once responses, cache integrity" `Quick (fun () ->
      let dir = temp_dir "ddm_serve_chaos" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let cfg =
            {
              Serve.default_config with
              Serve.workers = 2;
              cache_dir = Some dir;
              chaos =
                Some
                  {
                    Serve.slow_rate = 0.3;
                    slow_s = 0.05;
                    panic_rate = 0.2;
                    diskfail_rate = 0.5;
                    seed = 7;
                  };
            }
          in
          let total_batches = 5 and batch = 6 in
          with_serve cfg (fun t ->
            for b = 1 to total_batches do
              let bodies =
                List.init batch (fun i ->
                  (* cycle 4 distinct instances so repeats can hit cache *)
                  Printf.sprintf "{\"rule\":\"oblivious\",\"n\":3,\"params\":%.2f}"
                    (0.40 +. (0.05 *. float_of_int ((i + b) mod 4))))
              in
              let fds = List.map (fun body -> http_open ~body (Serve.port t) "/eval") bodies in
              let results = List.map http_read fds in
              List.iter
                (fun (s, _) ->
                  checkb
                    (Printf.sprintf "terminal status (got %d)" s)
                    true
                    (List.mem s [ 200; 429; 500; 504 ]))
                results
            done;
            let j = stats t in
            check Alcotest.int "every accepted request answered exactly once"
              (stat_int [ "accepted" ] j)
              (stat_int [ "terminal"; "deferred" ] j);
            check Alcotest.int "all requests terminal"
              (stat_int [ "requests" ] j)
              (stat_int [ "terminal"; "deferred" ] j + stat_int [ "terminal"; "inline" ] j);
            checkb "cache did real work" true
              (stat_int [ "cache"; "hits_lru" ] j + stat_int [ "cache"; "hits_disk" ] j > 0);
            checkb "chaos actually injected" true
              (stat_int [ "workers"; "panics" ] j > 0
              && stat_int [ "cache_write_failures" ] j > 0));
          (* integrity after the storm: recovery loads a clean store —
             failed writes left temps (swept), never torn entries *)
          let _, r = Cache_store.open_store ~dir in
          check Alcotest.int "no quarantined entries after chaos" 0 r.Cache_store.quarantined));
    Alcotest.test_case "graceful drain finishes accepted work" `Quick (fun () ->
      let cfg =
        {
          Serve.default_config with
          Serve.workers = 1;
          queue_depth = 4;
          chaos =
            Some
              { Serve.slow_rate = 1.0; slow_s = 0.3; panic_rate = 0.; diskfail_rate = 0.; seed = 5 };
        }
      in
      match Serve.start cfg with
      | Error e -> Alcotest.fail e
      | Ok t ->
        let bodies =
          List.init 3 (fun i ->
            Printf.sprintf "{\"rule\":\"threshold\",\"n\":3,\"params\":%.3f}"
              (0.55 +. (0.01 *. float_of_int i)))
        in
        let fds = List.map (fun body -> http_open ~body (Serve.port t) "/eval") bodies in
        Unix.sleepf 0.15;
        (* drain: all three were accepted before the stop; all must finish *)
        let t0 = Unix.gettimeofday () in
        Serve.stop ~drain_deadline_s:10. t;
        let dt = Unix.gettimeofday () -. t0 in
        let results = List.map http_read fds in
        checkb "all accepted jobs completed through drain" true
          (List.for_all (fun (s, _) -> s = 200) results);
        checkb "drain returned promptly" true (dt < 5.));
    Alcotest.test_case "drain deadline fails leftovers explicitly" `Quick (fun () ->
      let cfg =
        {
          Serve.default_config with
          Serve.workers = 1;
          queue_depth = 8;
          chaos =
            Some
              { Serve.slow_rate = 1.0; slow_s = 0.5; panic_rate = 0.; diskfail_rate = 0.; seed = 5 };
        }
      in
      match Serve.start cfg with
      | Error e -> Alcotest.fail e
      | Ok t ->
        let bodies =
          List.init 4 (fun i ->
            Printf.sprintf "{\"rule\":\"threshold\",\"n\":3,\"params\":%.3f}"
              (0.61 +. (0.01 *. float_of_int i)))
        in
        let fds = List.map (fun body -> http_open ~body (Serve.port t) "/eval") bodies in
        Unix.sleepf 0.1;
        (* the drain budget only covers the in-flight job, not the queue *)
        Serve.stop ~drain_deadline_s:0.6 t;
        let results = List.map http_read fds in
        let statuses = List.map fst results in
        checkb "every accepted request still got a terminal response" true
          (List.for_all (fun s -> List.mem s [ 200; 503; 504 ]) statuses);
        checkb "at least one finished" true (List.mem 200 statuses);
        checkb "at least one failed explicitly" true
          (List.exists (fun s -> s = 503 || s = 504) statuses));
    Alcotest.test_case "stats endpoint over http" `Quick (fun () ->
      with_serve Serve.default_config (fun t ->
        ignore (post ~body:eval_req (Serve.port t) "/eval");
        let status, body = get (Serve.port t) "/cache/stats" in
        check Alcotest.int "200" 200 status;
        let j = json_exn body in
        checkb "schema" true (Jsonx.string_member "schema" j = Some "ddm.cache.stats/v1");
        checkb "obs routes still pass through" true (fst (get (Serve.port t) "/healthz") = 200)));
    Alcotest.test_case "latency telemetry on /stats reconciles with responses" `Quick (fun () ->
      (* histograms are process-global, unlike the per-instance stats
         counters: claim a clean registry for the duration *)
      Metrics.reset ();
      Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Metrics.set_enabled false)
        (fun () ->
          with_serve Serve.default_config (fun t ->
            let s1, _ = post ~body:eval_req (Serve.port t) "/eval" in
            let s2, _ = post ~body:eval_req (Serve.port t) "/eval" in
            let s3, _ = post ~body:"{not json" (Serve.port t) "/eval" in
            check Alcotest.int "cold 200" 200 s1;
            check Alcotest.int "warm 200" 200 s2;
            check Alcotest.int "parse error 400" 400 s3;
            let status, body = get (Serve.port t) "/stats" in
            check Alcotest.int "200" 200 status;
            let j = json_exn body in
            checkb "schema" true (Jsonx.string_member "schema" j = Some "ddm.serve.stats/v1");
            (* superset of /cache/stats: the counter fields are all here *)
            check Alcotest.int "requests field present" 3 (stat_int [ "requests" ] j);
            check Alcotest.int "cache hits present" 1 (stat_int [ "cache"; "hits_lru" ] j);
            let oc name = stat_int [ "latency"; "outcomes"; name; "count" ] j in
            check Alcotest.int "one cold solve" 1 (oc "cold");
            check Alcotest.int "one lru hit" 1 (oc "hit_lru");
            check Alcotest.int "one error" 1 (oc "error");
            let outcome_total =
              List.fold_left ( + ) 0
                (List.map oc
                   [ "hit_lru"; "hit_disk"; "cold"; "shed"; "expired_queued"; "timeout"; "error" ])
            in
            check Alcotest.int "outcome counts sum to all terminals" 3 outcome_total;
            check Alcotest.int "all-outcome histogram agrees" 3
              (stat_int [ "latency"; "total"; "count" ] j);
            check Alcotest.int "budget ratio observed per terminal" 3
              (stat_int [ "latency"; "phases"; "budget_used"; "count" ] j);
            (* phases: only the cold request was queued and solved; both
               parsed requests went through the cache lookup *)
            check Alcotest.int "one queue wait" 1
              (stat_int [ "latency"; "phases"; "queue_wait"; "count" ] j);
            check Alcotest.int "one solve" 1 (stat_int [ "latency"; "phases"; "solve"; "count" ] j);
            check Alcotest.int "two cache lookups" 2
              (stat_int [ "latency"; "phases"; "cache_lookup"; "count" ] j);
            checkb "metrics marked live" true
              (Jsonx.member "latency" j
              |> Option.map (fun l -> Jsonx.member "metrics_enabled" l = Some (Jsonx.Bool true))
              |> Option.value ~default:false);
            checkb "quantiles are ordered" true
              (let p path = stat_float ([ "latency"; "total" ] @ [ path ]) j in
               p "p50" <= p "p90" && p "p90" <= p "p99" && p "p99" <= p "p999");
            (* the process-global responses counter reconciles too *)
            match Metrics.find "ddm_serve_responses_total" with
            | Some { Metrics.value = Metrics.Counter_v v; _ } ->
              check Alcotest.int "responses counter = outcome mass" 3 v
            | _ -> Alcotest.fail "responses counter not registered")));
    Alcotest.test_case "429 and 503 carry a computed Retry-After" `Quick (fun () ->
      let cfg =
        {
          Serve.default_config with
          Serve.workers = 1;
          queue_depth = 1;
          chaos =
            Some
              { Serve.slow_rate = 1.0; slow_s = 0.4; panic_rate = 0.; diskfail_rate = 0.; seed = 9 };
        }
      in
      match Serve.start cfg with
      | Error e -> Alcotest.fail e
      | Ok t ->
        let bodies =
          List.init 5 (fun i ->
            Printf.sprintf "{\"rule\":\"threshold\",\"n\":3,\"params\":%.3f}"
              (0.70 +. (0.01 *. float_of_int i)))
        in
        let fds = List.map (fun body -> http_open ~body (Serve.port t) "/eval") bodies in
        let raws = List.map http_read_raw fds in
        let shed = List.filter (fun raw -> contains raw " 429 ") raws in
        checkb "at least one request shed" true (shed <> []);
        List.iter
          (fun raw ->
            match header_value raw "Retry-After" with
            | None -> Alcotest.fail "429 without Retry-After"
            | Some v -> (
              match int_of_string_opt (String.trim v) with
              | Some s -> checkb "within [1, 60]" true (s >= 1 && s <= 60)
              | None -> Alcotest.fail ("Retry-After not an integer: " ^ v)))
          shed;
        Serve.stop ~drain_deadline_s:5. t);
    Alcotest.test_case "slow_request_s must be positive" `Quick (fun () ->
      Alcotest.check_raises "rejected"
        (Invalid_argument "Serve.start: slow_request_s must be positive") (fun () ->
          ignore (Serve.start { Serve.default_config with Serve.slow_request_s = 0. })));
    Alcotest.test_case "an answer stored under a v1 key is answered cold" `Quick (fun () ->
      (* a durable store filled by a build with the v1 key format holds
         answers the current evaluators would not give; they must miss *)
      let dir = temp_dir "ddm_serve_v1" in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let key = Solver.cache_key (parse_ok eval_req) in
          check Alcotest.string "current key format" "v2|" (String.sub key 0 3);
          let v1_key = "v1|" ^ String.sub key 3 (String.length key - 3) in
          let store, _ = Cache_store.open_store ~dir in
          Cache_store.put store ~key:v1_key
            (Solver.answer_to_json { Solver.p = 0.125; detail = [] });
          with_serve { Serve.default_config with Serve.cache_dir = Some dir } (fun t ->
            let status, body = post ~body:eval_req (Serve.port t) "/eval" in
            check Alcotest.int "200" 200 status;
            let j = json_exn body in
            checkb "answered cold" true (Jsonx.member "cached" j = Some (Jsonx.Bool false));
            checkb "not the stale v1 value" true (Jsonx.float_member "p" j <> Some 0.125))));
    Alcotest.test_case "a drained 504 counts its deadline expiry once" `Quick (fun () ->
      (* the per-instance counter, the process-global counter and the
         timeout histogram all see the drain's 504, once each *)
      Metrics.reset ();
      Metrics.set_enabled true;
      Fun.protect
        ~finally:(fun () -> Metrics.set_enabled false)
        (fun () ->
          let cfg =
            {
              Serve.default_config with
              Serve.workers = 1;
              chaos =
                Some
                  { Serve.slow_rate = 1.0; slow_s = 2.0; panic_rate = 0.; diskfail_rate = 0.;
                    seed = 5 };
            }
          in
          match Serve.start cfg with
          | Error e -> Alcotest.fail e
          | Ok t ->
            let fd = http_open ~body:eval_req (Serve.port t) "/eval" in
            Unix.sleepf 0.1;
            Serve.stop ~drain_deadline_s:0.3 t;
            check Alcotest.int "the in-flight job answers 504" 504 (fst (http_read fd));
            (* the superseded worker wakes from its stall, solves and loses
               the terminal CAS: wait for that late attempt to land here *)
            let rec await k =
              if k > 0 && stat_int [ "terminal"; "suppressed" ] (stats t) < 1 then begin
                Unix.sleepf 0.05;
                await (k - 1)
              end
            in
            await 100;
            check Alcotest.int "late attempt suppressed" 1
              (stat_int [ "terminal"; "suppressed" ] (stats t));
            check Alcotest.int "deadline_expired" 1 (stat_int [ "deadline_expired" ] (stats t));
            (match Metrics.find "ddm_serve_deadline_expired_total" with
            | Some { Metrics.value = Metrics.Counter_v v; _ } ->
              check Alcotest.int "ddm_serve_deadline_expired_total" 1 v
            | _ -> Alcotest.fail "deadline counter not registered");
            match Metrics.find "ddm_serve_request_seconds_timeout" with
            | Some { Metrics.value = Metrics.Histogram_v { count; _ }; _ } ->
              check Alcotest.int "timeout histogram count" 1 count
            | _ -> Alcotest.fail "timeout histogram not registered"));
  ]

let () =
  Alcotest.run "serve"
    [
      ("lru", lru_tests);
      ("cache-store", store_tests);
      ("workq", workq_tests);
      ("solver", solver_tests);
      ("engine-cancel-backoff", engine_tests);
      ("ledger-rotation", ledger_tests);
      ("httpd-limits", httpd_limit_tests);
      ("serve", serve_tests);
    ]
