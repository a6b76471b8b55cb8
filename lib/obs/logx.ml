(* Leveled structured logging for the long-running paths (the obs HTTP
   plane, parallel MC workers, fault sweeps).  Mirrors the Metrics/Trace
   design contract: disabled (the default) costs one load-and-compare per
   call site and allocates nothing; enabled, each record is rendered into a
   private buffer and written to the sink in a single mutex-guarded
   [output_string], so records from concurrent domains never interleave
   mid-line. *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_to_string = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

type value = Str of string | Int of int | Float of float | Bool of bool
type field = string * value
type format = Human | Json

(* max_int = disabled: [would_log] is then a single always-false compare.
   The threshold is a plain ref read racily from worker domains — a stale
   read can only delay/advance the cutover by a record or two, which is
   fine for a switch flipped once at CLI startup. *)
let threshold = ref max_int
let would_log l = severity l >= !threshold

let set_level = function
  | None -> threshold := max_int
  | Some l -> threshold := severity l

let sink_format = ref Human
let sink_channel = ref stderr
let set_format f = sink_format := f
let set_channel oc = sink_channel := oc

let mu = Mutex.create ()

let records =
  Metrics.counter ~help:"Structured log records emitted (post level filter)" "ddm_log_records_total"

let add_human_value buf = function
  | Str s ->
    if s <> "" && String.for_all (fun c -> c > ' ' && c <> '"' && c <> '=') s then
      Buffer.add_string buf s
    else Buffer.add_string buf (Printf.sprintf "%S" s)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float v -> Buffer.add_string buf (Export.num v)
  | Bool b -> Buffer.add_string buf (string_of_bool b)

let json_value = function
  | Str s -> Jsonx.Str s
  | Int i -> Jsonx.Num (float_of_int i)
  | Float v -> Jsonx.Num v
  | Bool b -> Jsonx.Bool b

let emit l msg fields =
  let t = Unix.gettimeofday () in
  let tid = (Domain.self () :> int) in
  let buf = Buffer.create 128 in
  (match !sink_format with
  | Human ->
    let tm = Unix.localtime t in
    let ms = int_of_float (Float.rem t 1. *. 1000.) in
    Buffer.add_string buf
      (Printf.sprintf "%02d:%02d:%02d.%03d %-5s [d%d] %s" tm.Unix.tm_hour tm.Unix.tm_min
         tm.Unix.tm_sec ms (level_to_string l) tid msg);
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf k;
        Buffer.add_char buf '=';
        add_human_value buf v)
      fields
  | Json ->
    Buffer.add_string buf
      (Jsonx.to_string
         (Jsonx.Obj
            (("t", Jsonx.Num t)
            :: ("level", Jsonx.Str (level_to_string l))
            :: ("domain", Jsonx.Num (float_of_int tid))
            :: ("msg", Jsonx.Str msg)
            :: List.map (fun (k, v) -> (k, json_value v)) fields))));
  Buffer.add_char buf '\n';
  let line = Buffer.contents buf in
  Metrics.incr records;
  Mutex.lock mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mu)
    (fun () ->
      output_string !sink_channel line;
      flush !sink_channel)

let log l msg fields = if would_log l then emit l msg fields
let debug msg fields = log Debug msg fields
let info msg fields = log Info msg fields
let warn msg fields = log Warn msg fields
let error msg fields = log Error msg fields
