(* Append-only JSONL run ledger.  Every instrumented ddm/bench invocation
   appends one schema-versioned line recording what ran (command, argv,
   seed), where (git revision), and what it cost (monotonic wall time, GC
   allocation stats, the metrics that moved).  Append-only JSONL makes the
   ledger crash-tolerant: a torn final line is skipped on load, never
   poisoning the history before it. *)

let schema = "ddm.ledger/v1"

(* ------------------------------ GC stats ------------------------------ *)

type gc_stats = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

(* Gc.quick_stat sums every domain's counts, joined ones included, but a
   domain's minor words reach it only at a minor collection: the forced
   one leaves no domain's words uncounted.  (Gc.minor_words would read
   the calling domain alone.) *)
let gc_now () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
  }

let gc_delta ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    promoted_words = after.promoted_words -. before.promoted_words;
    major_words = after.major_words -. before.major_words;
    minor_collections = after.minor_collections - before.minor_collections;
    major_collections = after.major_collections - before.major_collections;
    compactions = after.compactions - before.compactions;
  }

let gc_to_json g =
  Jsonx.Obj
    [
      ("minor_words", Jsonx.Num g.minor_words);
      ("promoted_words", Jsonx.Num g.promoted_words);
      ("major_words", Jsonx.Num g.major_words);
      ("minor_collections", Jsonx.Num (float_of_int g.minor_collections));
      ("major_collections", Jsonx.Num (float_of_int g.major_collections));
      ("compactions", Jsonx.Num (float_of_int g.compactions));
    ]

let gc_of_json json =
  let f key = Option.value ~default:0. (Jsonx.float_member key json) in
  let i key = Option.value ~default:0 (Jsonx.int_member key json) in
  {
    minor_words = f "minor_words";
    promoted_words = f "promoted_words";
    major_words = f "major_words";
    minor_collections = i "minor_collections";
    major_collections = i "major_collections";
    compactions = i "compactions";
  }

(* ---------------------------- provenance ---------------------------- *)

(* [git -C dir ARGS]'s stdout when it exits 0; [None] when git is
   missing or fails.  stderr goes to /dev/null, so a probe outside a
   repository prints nothing.  [Unix.create_process] spawns without an
   OCaml-level fork, so the probe is safe while other domains run. *)
let git_output ~dir args =
  let argv = Array.of_list ("git" :: "-C" :: dir :: args) in
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error _ -> None
  | r, w -> (
    let pid =
      match Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 with
      | exception Unix.Unix_error _ -> None
      | null ->
        Fun.protect
          ~finally:(fun () -> Unix.close null)
          (fun () ->
            try Some (Unix.create_process "git" argv null w null) with Unix.Unix_error _ -> None)
    in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let out = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic) in
    let rec wait pid =
      match Unix.waitpid [] pid with
      | _, status -> status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid
    in
    match pid with Some pid when wait pid = Unix.WEXITED 0 -> Some out | _ -> None)

(* Untracked files do not count as dirty: build output, perfbench's work
   directory and the A/B driver's worktrees live untracked in the
   checkout.  --no-optional-locks keeps status from rewriting the index
   while another git process works in the same checkout. *)
let git_rev_at ~dir =
  match git_output ~dir [ "rev-parse"; "HEAD" ] with
  | None -> None
  | Some out ->
    let dirty =
      match
        git_output ~dir [ "--no-optional-locks"; "status"; "--porcelain"; "--untracked-files=no" ]
      with
      | Some status -> String.trim status <> ""
      | None -> false
    in
    Some (String.trim out ^ if dirty then "-dirty" else "")

(* ------------------------------ entries ------------------------------ *)

type entry = {
  timestamp_s : float;
  command : string;
  argv : string list;
  seed : int option;
  rev : string option;
  wall_seconds : float;
  gc : gc_stats;
  metrics : Jsonx.t;
}

let opt_str = function Some s -> Jsonx.Str s | None -> Jsonx.Null
let opt_int = function Some v -> Jsonx.Num (float_of_int v) | None -> Jsonx.Null

let to_json e =
  Jsonx.Obj
    [
      ("schema", Jsonx.Str schema);
      ("timestamp_s", Jsonx.Num e.timestamp_s);
      ("command", Jsonx.Str e.command);
      ("argv", Jsonx.Arr (List.map (fun a -> Jsonx.Str a) e.argv));
      ("seed", opt_int e.seed);
      ("git_rev", opt_str e.rev);
      ("wall_seconds", Jsonx.Num e.wall_seconds);
      ("gc", gc_to_json e.gc);
      ("metrics", e.metrics);
    ]

let of_json json =
  match Jsonx.string_member "schema" json with
  | Some s when s = schema ->
    let command = Option.value ~default:"" (Jsonx.string_member "command" json) in
    let argv =
      match Jsonx.list_member "argv" json with
      | Some l -> List.filter_map Jsonx.to_string_opt l
      | None -> []
    in
    Ok
      {
        timestamp_s = Option.value ~default:0. (Jsonx.float_member "timestamp_s" json);
        command;
        argv;
        seed = Jsonx.int_member "seed" json;
        rev = Jsonx.string_member "git_rev" json;
        wall_seconds = Option.value ~default:0. (Jsonx.float_member "wall_seconds" json);
        gc = (match Jsonx.member "gc" json with Some g -> gc_of_json g | None -> gc_of_json Jsonx.Null);
        metrics = Option.value ~default:Jsonx.Null (Jsonx.member "metrics" json);
      }
  | Some other -> Error (Printf.sprintf "unknown ledger schema %S" other)
  | None -> Error "missing \"schema\" field"

(* ------------------------------- file IO ------------------------------- *)

let rotated_name file = file ^ ".1"

(* Size-triggered rotation: when the ledger has grown past [rotate_above]
   bytes, the current file is atomically renamed to [file ^ ".1"]
   (replacing the previous generation) and the entry starts a fresh file.
   At most two generations ever exist, so a long-running server bounds its
   ledger footprint at ~2x the threshold.  The rename is a single
   same-directory [Sys.rename], so a crash leaves either the old or the
   new layout — never a half-moved file. *)
let maybe_rotate ~rotate_above file =
  match rotate_above with
  | None -> ()
  | Some limit -> (
    match (Unix.stat file).Unix.st_size with
    | size when size >= limit && limit > 0 -> (
      try Sys.rename file (rotated_name file) with Sys_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error _ -> ())

let append ?rotate_above ~file e =
  maybe_rotate ~rotate_above file;
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Jsonx.to_string (to_json e));
      output_char oc '\n')

let load ~file =
  match open_in file with
  | exception Sys_error _ -> ([], 0)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let entries = ref [] and skipped = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match Jsonx.parse line with
               | Error _ -> incr skipped
               | Ok json -> (
                 match of_json json with
                 | Ok e -> entries := e :: !entries
                 | Error _ -> incr skipped)
           done
         with End_of_file -> ());
        (List.rev !entries, !skipped))

(* [load] across the rotation boundary: the previous generation first, so
   entries stay in chronological order and a tail of the concatenation is
   the true most-recent history. *)
let load_rotated ~file =
  let old_entries, old_skipped = load ~file:(rotated_name file) in
  let entries, skipped = load ~file in
  (old_entries @ entries, old_skipped + skipped)

(* ----------------------------- recording ----------------------------- *)

let entry_of_run ~command ~argv ?seed ~wall_seconds ~gc () =
  {
    timestamp_s = Unix.gettimeofday ();
    command;
    argv;
    seed;
    rev = Build_rev.rev;
    wall_seconds;
    gc;
    metrics = Export.moved_json (Metrics.snapshot ());
  }

let recording ~file ~command ~argv ?seed f =
  let g0 = gc_now () in
  let t0 = Trace.now_mono_s () in
  let finish () =
    let wall_seconds = Trace.now_mono_s () -. t0 in
    let gc = gc_delta ~before:g0 ~after:(gc_now ()) in
    append ~file (entry_of_run ~command ~argv ?seed ~wall_seconds ~gc ())
  in
  Fun.protect ~finally:finish f
