(** Minimal JSON tree for the repo's own machine-readable artifacts
    (ledger lines, serve answers, snapshots, [--metrics json] and
    [--log-json] lines, Chrome traces): parse, print, and a few accessors.
    It is the one JSON writer in [lib/obs].  Numbers are floats throughout
    (ints survive to [1e15]).  Kept tiny on purpose — no dependency on an
    external JSON library. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> (t, string) result
val parse_exn : string -> t
(** @raise Parse_error on malformed input (including trailing garbage). *)

val to_string : t -> string
(** Compact (single-line) rendering, numbers at full precision.  Round-trips
    with {!parse} for every value except the non-finite numbers (NaN and
    the infinities), which are emitted as [null]. *)

(** {1 Accessors} — all total; [None] on a kind mismatch or missing key. *)

val member : string -> t -> t option
val to_float_opt : t -> float option
val to_int_opt : t -> int option
val to_string_opt : t -> string option
val float_member : string -> t -> float option
val int_member : string -> t -> int option
val string_member : string -> t -> string option
val list_member : string -> t -> t list option
