(** Append-only JSONL run ledger ([ddm.ledger/v1]).

    One line per instrumented invocation: command, argv, seed, git
    revision, monotonic wall time, GC allocation stats, and the metrics
    that moved.  Loads tolerate a torn (truncated) final line — the
    crash-consistency property of append-only JSONL — by skipping
    unparseable lines and reporting how many were skipped. *)

(** {1 GC statistics} *)

type gc_stats = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

val gc_now : unit -> gc_stats
(** Current cumulative [Gc.quick_stat] values, summed over every domain
    (joined ones included), read right after a forced [Gc.minor ()] so
    that no domain's minor words are still uncounted.  So a delta's
    [minor_collections] includes the collection its closing read forces. *)

val gc_delta : before:gc_stats -> after:gc_stats -> gc_stats
val gc_of_json : Jsonx.t -> gc_stats
(** Missing fields decode to zero, so partial records stay loadable. *)

(** {1 Provenance} *)

val git_rev_at : dir:string -> string option
(** The HEAD commit hash of the git checkout holding [dir], as
    [git -C dir rev-parse HEAD] prints it, with ["-dirty"] appended when
    a tracked file differs from HEAD (untracked files do not count).
    [None] when git is missing, [dir] is not in a work tree, or git
    refuses the repository. *)

(** {1 Entries} *)

type entry = {
  timestamp_s : float;  (** Unix epoch seconds at record time *)
  command : string;  (** subcommand or tool name, e.g. ["eval"], ["bench"] *)
  argv : string list;
  seed : int option;
  rev : string option;  (** git revision, when resolvable *)
  wall_seconds : float;  (** monotonic wall time of the run *)
  gc : gc_stats;  (** allocation delta over the run *)
  metrics : Jsonx.t;
      (** grouped metrics; new entries keep only what moved
          ({!Export.moved_json}), older ones the whole registry *)
}

val to_json : entry -> Jsonx.t
val of_json : Jsonx.t -> (entry, string) result

val append : ?rotate_above:int -> file:string -> entry -> unit
(** Append one line, creating the file if needed.  When [rotate_above] is
    given and the file has already reached that many bytes, it is first
    atomically renamed to [file ^ ".1"] (replacing any previous
    generation), so the ledger's on-disk footprint stays bounded at about
    twice the threshold.
    @raise Sys_error when the file cannot be opened for writing. *)

val load : file:string -> entry list * int
(** All well-formed entries in file order, plus the number of skipped
    (unparseable or wrong-schema) lines.  A missing file loads as
    [([], 0)]. *)

val rotated_name : string -> string
(** [file ^ ".1"], the single previous generation kept by rotation. *)

val load_rotated : file:string -> entry list * int
(** {!load} across the rotation boundary: entries of [file ^ ".1"] (older)
    followed by entries of [file], skip counts summed.  Missing files load
    as empty, so this is a drop-in superset of {!load}. *)

val entry_of_run :
  command:string ->
  argv:string list ->
  ?seed:int ->
  wall_seconds:float ->
  gc:gc_stats ->
  unit ->
  entry
(** Build an entry stamped with the current time, the git revision the
    running binary was built from, and the metrics that moved
    ({!Export.moved_json}).  The revision is taken at build time, as
    {!git_rev_at} reads the source tree ([-dirty] when a tracked file
    differed from HEAD), so it names the build wherever the binary runs;
    [None] when the tree was not a git checkout. *)

val recording : file:string -> command:string -> argv:string list -> ?seed:int -> (unit -> 'a) -> 'a
(** Run the thunk, then append one entry covering it (monotonic wall time,
    every domain's GC delta between two {!gc_now} reads, metrics snapshot
    at exit).  The entry is appended even if the thunk raises; the
    exception is re-raised. *)
