(* Tests for the performance-observability layer: the Jsonx parser, the
   append-only run ledger (including torn-final-line recovery and git
   revision resolution), and the CLI's --trace and --ledger epilogues. *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let tmp_file =
  let k = ref 0 in
  fun suffix ->
    incr k;
    Printf.sprintf "test_perf_%d_%d%s" (Unix.getpid ()) !k suffix

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------- jsonx ------------------------------- *)

let jsonx_tests =
  [
    Alcotest.test_case "parse/print round-trips" `Quick (fun () ->
      List.iter
        (fun s ->
          match Jsonx.parse s with
          | Error msg -> Alcotest.fail (Printf.sprintf "%s failed to parse: %s" s msg)
          | Ok v -> Alcotest.(check string) ("round-trip: " ^ s) s (Jsonx.to_string v))
        [
          "null"; "true"; "false"; "0"; "-3"; "42"; "0.5"; "-0.25"; "1e+20";
          "\"\""; "\"a b\""; "\"\\\"quoted\\\"\""; "\"\\\\\""; "[]"; "[1,2,3]";
          "{}"; "{\"a\":1}"; "{\"a\":[true,null],\"b\":{\"c\":\"d\"}}";
        ]);
    Alcotest.test_case "whitespace and escapes parse" `Quick (fun () ->
      match Jsonx.parse "  { \"a\" : [ 1 , \"x\\n\\t\\u0041\" ] }  " with
      | Error msg -> Alcotest.fail msg
      | Ok v -> (
        Alcotest.(check (option (float 0.))) "a[0]" (Some 1.)
          (Option.bind (Jsonx.list_member "a" v) (fun l -> Jsonx.to_float_opt (List.hd l)));
        match Jsonx.list_member "a" v with
        | Some [ _; Jsonx.Str s ] -> Alcotest.(check string) "escapes decoded" "x\n\tA" s
        | _ -> Alcotest.fail "expected a two-element array"));
    Alcotest.test_case "malformed inputs are rejected" `Quick (fun () ->
      List.iter
        (fun s ->
          Alcotest.(check bool) ("rejected: " ^ s) true (Result.is_error (Jsonx.parse s)))
        [ ""; "{"; "[1,"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]);
    Alcotest.test_case "accessors find members and miss cleanly" `Quick (fun () ->
      let v = Jsonx.parse_exn "{\"i\":7,\"f\":2.5,\"s\":\"hi\",\"l\":[1]}" in
      Alcotest.(check (option int)) "int" (Some 7) (Jsonx.int_member "i" v);
      Alcotest.(check (option (float 0.))) "float" (Some 2.5) (Jsonx.float_member "f" v);
      Alcotest.(check (option string)) "string" (Some "hi") (Jsonx.string_member "s" v);
      Alcotest.(check bool) "list" true (Jsonx.list_member "l" v = Some [ Jsonx.Num 1. ]);
      Alcotest.(check (option int)) "missing" None (Jsonx.int_member "zzz" v);
      Alcotest.(check (option int)) "wrong type" None (Jsonx.int_member "s" v));
    Alcotest.test_case "non-finite numbers render as null" `Quick (fun () ->
      let doc =
        Jsonx.to_string
          (Jsonx.Obj
             [ ("a", Jsonx.Num infinity); ("b", Jsonx.Num neg_infinity); ("c", Jsonx.Num nan) ])
      in
      Alcotest.(check string) "rendered" {|{"a":null,"b":null,"c":null}|} doc;
      match Jsonx.parse doc with
      | Ok v -> Alcotest.(check bool) "parses" true (Jsonx.member "a" v = Some Jsonx.Null)
      | Error msg -> Alcotest.fail msg);
  ]

(* ------------------------------- ledger ------------------------------- *)

let sample_entry ?(command = "test") () =
  let gc =
    {
      Ledger.minor_words = 1234.;
      promoted_words = 56.;
      major_words = 78.;
      minor_collections = 2;
      major_collections = 1;
      compactions = 0;
    }
  in
  {
    Ledger.timestamp_s = 1700000000.5;
    command;
    argv = [ "--seed"; "7" ];
    seed = Some 7;
    rev = Some "abc123";
    wall_seconds = 0.25;
    gc;
    metrics = Jsonx.parse_exn "{\"counters\":{\"x\":1}}";
  }

let ledger_tests =
  [
    Alcotest.test_case "run records keep only metrics that moved" `Quick (fun () ->
      let sample name value = { Metrics.name; help = ""; value } in
      let hist counts sum =
        Metrics.Histogram_v
          { bounds = [| 1. |]; counts; sum; count = Array.fold_left ( + ) 0 counts }
      in
      let moved =
        [ sample "c_moved" (Metrics.Counter_v 3); sample "g_moved" (Metrics.Gauge_v 2.5);
          sample "h_moved" (hist [| 1; 2 |] 4.5) ]
      in
      let still =
        [ sample "c_zero" (Metrics.Counter_v 0); sample "g_zero" (Metrics.Gauge_v 0.);
          sample "h_empty" (hist [| 0; 0 |] 0.) ]
      in
      let j = Jsonx.to_string (Export.moved_json (still @ moved)) in
      Alcotest.(check string) "what moved, in the full snapshot's shape"
        (Jsonx.to_string (Export.grouped_json moved))
        j;
      Alcotest.(check string) "an idle registry records empty groups"
        "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        (Jsonx.to_string (Export.moved_json still)));
    Alcotest.test_case "entry JSON round-trip" `Quick (fun () ->
      let e = sample_entry () in
      match Ledger.of_json (Ledger.to_json e) with
      | Error msg -> Alcotest.fail msg
      | Ok e' ->
        Alcotest.(check string) "command" e.Ledger.command e'.Ledger.command;
        Alcotest.(check (list string)) "argv" e.Ledger.argv e'.Ledger.argv;
        Alcotest.(check (option int)) "seed" e.Ledger.seed e'.Ledger.seed;
        Alcotest.(check (option string)) "rev" e.Ledger.rev e'.Ledger.rev;
        Alcotest.(check (float 1e-9)) "wall" e.Ledger.wall_seconds e'.Ledger.wall_seconds;
        Alcotest.(check (float 1e-9)) "gc minor words" e.Ledger.gc.Ledger.minor_words
          e'.Ledger.gc.Ledger.minor_words);
    Alcotest.test_case "wrong schema is rejected" `Quick (fun () ->
      let doctored =
        match Ledger.to_json (sample_entry ()) with
        | Jsonx.Obj kvs ->
          Jsonx.Obj
            (List.map
               (fun (k, v) -> if k = "schema" then (k, Jsonx.Str "other/v9") else (k, v))
               kvs)
        | _ -> Alcotest.fail "entry did not serialize to an object"
      in
      Alcotest.(check bool) "rejected" true (Result.is_error (Ledger.of_json doctored)));
    Alcotest.test_case "append/load round-trip preserves order" `Quick (fun () ->
      let file = tmp_file ".jsonl" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
        (fun () ->
          Ledger.append ~file (sample_entry ~command:"first" ());
          Ledger.append ~file (sample_entry ~command:"second" ());
          let entries, skipped = Ledger.load ~file in
          Alcotest.(check int) "no skips" 0 skipped;
          Alcotest.(check (list string)) "file order" [ "first"; "second" ]
            (List.map (fun e -> e.Ledger.command) entries)));
    Alcotest.test_case "torn final line is skipped, earlier entries survive" `Quick (fun () ->
      let file = tmp_file ".jsonl" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
        (fun () ->
          Ledger.append ~file (sample_entry ~command:"survivor" ());
          (* simulate a crash mid-append: a prefix of a record, no newline *)
          let torn = read_file file ^ "{\"schema\":\"ddm.ledger/v1\",\"timest" in
          write_file file torn;
          let entries, skipped = Ledger.load ~file in
          Alcotest.(check int) "one skipped" 1 skipped;
          Alcotest.(check (list string)) "survivor intact" [ "survivor" ]
            (List.map (fun e -> e.Ledger.command) entries)));
    Alcotest.test_case "foreign-schema lines are counted as skips" `Quick (fun () ->
      let file = tmp_file ".jsonl" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
        (fun () ->
          write_file file "{\"schema\":\"not.a.ledger/v1\"}\n";
          Ledger.append ~file (sample_entry ());
          let entries, skipped = Ledger.load ~file in
          Alcotest.(check int) "one entry" 1 (List.length entries);
          Alcotest.(check int) "one skip" 1 skipped));
    Alcotest.test_case "missing file loads as empty" `Quick (fun () ->
      let entries, skipped = Ledger.load ~file:"test_perf_no_such_ledger.jsonl" in
      Alcotest.(check int) "no entries" 0 (List.length entries);
      Alcotest.(check int) "no skips" 0 skipped);
    Alcotest.test_case "gc_of_json zero-fills missing fields" `Quick (fun () ->
      let gc = Ledger.gc_of_json (Jsonx.parse_exn "{\"minor_words\":10}") in
      Alcotest.(check (float 0.)) "present" 10. gc.Ledger.minor_words;
      Alcotest.(check (float 0.)) "absent float" 0. gc.Ledger.major_words;
      Alcotest.(check int) "absent int" 0 gc.Ledger.compactions);
    Alcotest.test_case "git rev names HEAD and marks a dirty checkout" `Quick (fun () ->
      let root = Filename.temp_file "test_perf_git" "" in
      Sys.remove root;
      Unix.mkdir root 0o755;
      let repo = Filename.concat root "repo" and linked = Filename.concat root "linked" in
      let git args =
        let cmd =
          Printf.sprintf "git -C %s -c user.name=ddm -c user.email=ddm@example.invalid %s"
            (Filename.quote repo) args
        in
        let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
        let out = String.trim (In_channel.input_all ic) in
        if Unix.close_process_in ic <> Unix.WEXITED 0 then Alcotest.failf "%s failed" cmd;
        out
      in
      let rev dir = Ledger.git_rev_at ~dir in
      let rm_rf = Printf.sprintf "rm -rf %s" (Filename.quote root) in
      Fun.protect
        ~finally:(fun () -> ignore (Sys.command rm_rf))
        (fun () ->
          Alcotest.(check (option string)) "not a repository" None (rev root);
          Unix.mkdir repo 0o755;
          let file = Filename.concat repo "tracked" in
          write_file file "one\n";
          ignore (git "init -q");
          ignore (git "add tracked");
          ignore (git "commit -q -m one");
          let first = git "rev-parse HEAD" in
          Alcotest.(check (option string)) "committed" (Some first) (rev repo);
          write_file file "two\n";
          Alcotest.(check (option string)) "modified tracked file" (Some (first ^ "-dirty"))
            (rev repo);
          ignore (git "commit -q -a -m two");
          let second = git "rev-parse HEAD" in
          write_file (Filename.concat repo "untracked") "x\n";
          Alcotest.(check (option string)) "untracked files stay clean" (Some second) (rev repo);
          ignore (git ("checkout -q --detach " ^ first));
          Alcotest.(check (option string)) "detached HEAD" (Some first) (rev repo);
          ignore (git (Printf.sprintf "worktree add -q %s %s" (Filename.quote linked) second));
          Alcotest.(check (option string)) "linked worktree" (Some second) (rev linked)));
    Alcotest.test_case "a ledger entry names the build, not the working directory" `Quick
      (fun () ->
      let dir = Filename.temp_file "test_perf_norepo" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o755;
      let cwd = Sys.getcwd () in
      Fun.protect
        ~finally:(fun () ->
          Sys.chdir cwd;
          Unix.rmdir dir)
        (fun () ->
          Sys.chdir dir;
          Alcotest.(check (option string)) "not a repository" None (Ledger.git_rev_at ~dir:".");
          let e =
            Ledger.entry_of_run ~command:"test" ~argv:[] ~wall_seconds:0. ~gc:(Ledger.gc_now ()) ()
          in
          Alcotest.(check (option string)) "the build's revision" Build_rev.rev e.Ledger.rev));
    Alcotest.test_case "a recording counts a joined domain's allocation" `Quick (fun () ->
      let file = tmp_file ".jsonl" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
        (fun () ->
          (* 250 000 three-word cons cells: 750 000 words; the boxed floats
             make it over a million *)
          Ledger.recording ~file ~command:"test" ~argv:[] (fun () ->
            Domain.join
              (Domain.spawn (fun () ->
                 ignore (Sys.opaque_identity (List.init 250_000 float_of_int)))));
          match Ledger.load ~file with
          | [ e ], 0 ->
            let words = e.Ledger.gc.Ledger.minor_words in
            Alcotest.(check bool)
              (Printf.sprintf "%.0f minor words >= 1 000 000" words)
              true (words >= 1e6)
          | entries, skipped ->
            Alcotest.failf "%d entries, %d skipped" (List.length entries) skipped));
  ]

(* ----------------------------- integration ----------------------------- *)

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

let run_out args out =
  Sys.command (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote ddm_exe) args (Filename.quote out))

let integration_tests =
  [
    Alcotest.test_case "--trace prints the per-name profile" `Quick (fun () ->
      let log = tmp_file ".log" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists log then Sys.remove log)
        (fun () ->
          Alcotest.(check int) "eval exits 0" 0
            (run_out "eval -n 3 --samples 2000 --seed 1 --trace" log);
          let out = read_file log in
          Alcotest.(check bool) "profile header" true (contains out "profile by name");
          Alcotest.(check bool) "mc span profiled" true (contains out "mc.probability")));
    Alcotest.test_case "--ledger appends a loadable entry" `Quick (fun () ->
      let ledger = tmp_file ".jsonl" and log = tmp_file ".log" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ ledger; log ])
        (fun () ->
          Alcotest.(check int) "first run exits 0" 0
            (run_out (Printf.sprintf "eval -n 3 --samples 2000 --seed 9 --ledger %s" ledger) log);
          Alcotest.(check int) "second run exits 0" 0
            (run_out (Printf.sprintf "eval -n 3 --samples 2000 --seed 9 --ledger %s" ledger) log);
          let entries, skipped = Ledger.load ~file:ledger in
          Alcotest.(check int) "two entries" 2 (List.length entries);
          Alcotest.(check int) "no skips" 0 skipped;
          let e = List.hd entries in
          Alcotest.(check string) "command" "eval" e.Ledger.command;
          Alcotest.(check (option int)) "seed captured" (Some 9) e.Ledger.seed;
          Alcotest.(check bool) "wall time positive" true (e.Ledger.wall_seconds > 0.);
          Alcotest.(check bool) "allocation recorded" true
            (e.Ledger.gc.Ledger.minor_words > 0.)));
    Alcotest.test_case "--ledger records the seed the run used" `Quick (fun () ->
      let ledger = tmp_file ".jsonl" and log = tmp_file ".log" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ ledger; log ])
        (fun () ->
          (* the default, the = form, and an abbreviation cmdliner accepts *)
          List.iter
            (fun seed ->
              Alcotest.(check int) (Printf.sprintf "eval %S exits 0" seed) 0
                (run_out
                   (Printf.sprintf "eval -n 3 --samples 2000 %s --ledger %s" seed ledger)
                   log))
            [ ""; "--seed=9"; "--se 7" ];
          let entries, _ = Ledger.load ~file:ledger in
          Alcotest.(check (list (option int)))
            "seeds" [ Some 42; Some 9; Some 7 ]
            (List.map (fun e -> e.Ledger.seed) entries)));
  ]

let () =
  Alcotest.run "perf"
    [
      ("jsonx", jsonx_tests);
      ("ledger", ledger_tests);
      ("integration", integration_tests);
    ]
