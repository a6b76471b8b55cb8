(** Leveled, structured (key=value) logging for the live observability
    plane.

    Disabled by default: every [log]/[debug]/... call is then a single
    load-and-compare, and passing [[]] for the fields keeps the call site
    allocation-free.  Sites that build a non-empty field list should guard
    with {!would_log} so the list is only allocated when a record will
    actually be emitted:

    {[
      if Logx.would_log Logx.Debug then
        Logx.debug "mc.par.lease" [ ("lease", Logx.Int i) ]
    ]}

    Domain-safety: any domain may log.  Each record is rendered privately
    and written to the sink under a mutex in one [output_string], so
    concurrent records never interleave mid-line.  The level/sink switches
    are plain refs meant to be set once at startup (a racy read during the
    flip can only mis-filter a record or two). *)

type level = Debug | Info | Warn | Error

type value = Str of string | Int of int | Float of float | Bool of bool
type field = string * value

type format =
  | Human  (** [HH:MM:SS.mmm LEVEL \[dN\] msg k=v ...], floats by {!Export.num} *)
  | Json
      (** one JSON object per line, rendered by {!Jsonx}:
          [{"t":..,"level":..,"domain":..,"msg":..,k:v,..}], floats at
          full precision and non-finite ones as [null] *)

val set_level : level option -> unit
(** [Some l] enables records at [l] and above; [None] (the default)
    disables logging entirely. *)

val would_log : level -> bool
(** One load-and-compare; true iff a record at this level would be
    emitted. *)

val set_format : format -> unit
(** Default {!Human}. *)

val set_channel : out_channel -> unit
(** Default [stderr].  The channel is flushed after every record. *)

val log : level -> string -> field list -> unit
val debug : string -> field list -> unit
val info : string -> field list -> unit
val warn : string -> field list -> unit
val error : string -> field list -> unit
