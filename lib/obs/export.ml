type format = Table | Json | Prometheus

let format_of_string = function
  | "table" -> Some Table
  | "json" -> Some Json
  | "prom" | "prometheus" -> Some Prometheus
  | _ -> None

let format_to_string = function Table -> "table" | Json -> "json" | Prometheus -> "prom"

(* Number rendering: integers stay integral, everything else goes through
   %.12g; non-finite floats only ever appear as the +Inf bucket bound. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let cumulative counts =
  let acc = ref 0 in
  Array.map
    (fun c ->
      acc := !acc + c;
      !acc)
    counts

(* Prometheus-style histogram_quantile over per-bucket counts: find the
   bucket holding the q-th observation and interpolate linearly inside it
   (lower bound 0 for the first bucket, since these histograms hold
   nonnegative durations).  Observations in the +Inf overflow bucket have
   no upper bound to interpolate toward, so a rank landing there reports
   the highest finite bound — a floor, the honest answer a fixed-bucket
   histogram can give. *)
let histogram_quantile ~bounds ~counts q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Export.histogram_quantile: q outside [0, 1]";
  if Array.length counts <> Array.length bounds + 1 then
    invalid_arg "Export.histogram_quantile: counts must be bounds + 1 long";
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.
  else begin
    let rank = q *. float_of_int total in
    let k = Array.length bounds in
    let rec find i cum =
      if i >= k then bounds.(k - 1)
      else
        let cum' = cum + counts.(i) in
        if float_of_int cum' >= rank then begin
          let lo = if i = 0 then 0. else bounds.(i - 1) in
          let hi = bounds.(i) in
          let in_bucket = counts.(i) in
          if in_bucket = 0 then hi
          else lo +. ((hi -. lo) *. (rank -. float_of_int cum) /. float_of_int in_bucket)
        end
        else find (i + 1) cum'
    in
    find 0 0
  end

(* ------------------------------ table ------------------------------ *)

let to_table samples =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "%-44s %-10s %s\n" "metric" "type" "value");
  List.iter
    (fun { Metrics.name; value; _ } ->
      match value with
      | Metrics.Counter_v v -> Buffer.add_string buf (Printf.sprintf "%-44s %-10s %d\n" name "counter" v)
      | Metrics.Gauge_v v ->
        Buffer.add_string buf (Printf.sprintf "%-44s %-10s %s\n" name "gauge" (num v))
      | Metrics.Histogram_v { bounds; counts; sum; count } ->
        Buffer.add_string buf
          (Printf.sprintf "%-44s %-10s count=%d sum=%s mean=%s\n" name "histogram" count (num sum)
             (num (if count = 0 then 0. else sum /. float_of_int count)));
        let cum = cumulative counts in
        Array.iteri
          (fun i c ->
            let le = if i < Array.length bounds then num bounds.(i) else "+Inf" in
            Buffer.add_string buf (Printf.sprintf "  le <= %-49s %d\n" le c))
          cum)
    samples;
  Buffer.contents buf

(* ------------------------------ JSON ------------------------------- *)

let json_histogram_body buf bounds counts sum count =
  Buffer.add_string buf (Printf.sprintf "\"count\":%d,\"sum\":%s,\"buckets\":[" count (num sum));
  let cum = cumulative counts in
  Array.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf ',';
      let le =
        if i < Array.length bounds then num bounds.(i) else "\"+Inf\""
      in
      Buffer.add_string buf (Printf.sprintf "{\"le\":%s,\"count\":%d}" le c))
    cum;
  Buffer.add_char buf ']'

let json_of_sample { Metrics.name; help; value } =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "{\"name\":\"%s\"," (json_escape name));
  if help <> "" then Buffer.add_string buf (Printf.sprintf "\"help\":\"%s\"," (json_escape help));
  (match value with
  | Metrics.Counter_v v -> Buffer.add_string buf (Printf.sprintf "\"type\":\"counter\",\"value\":%d" v)
  | Metrics.Gauge_v v ->
    Buffer.add_string buf (Printf.sprintf "\"type\":\"gauge\",\"value\":%s" (num v))
  | Metrics.Histogram_v { bounds; counts; sum; count } ->
    Buffer.add_string buf "\"type\":\"histogram\",";
    json_histogram_body buf bounds counts sum count);
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_json_lines samples = String.concat "" (List.map (fun s -> json_of_sample s ^ "\n") samples)

let json_of_samples samples =
  let buf = Buffer.create 512 in
  let emit_group label filter =
    let first = ref true in
    Buffer.add_string buf (Printf.sprintf "\"%s\":{" label);
    List.iter
      (fun ({ Metrics.name; value; _ } as _s) ->
        match filter value with
        | None -> ()
        | Some body ->
          if not !first then Buffer.add_char buf ',';
          first := false;
          Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (json_escape name) body))
      samples;
    Buffer.add_char buf '}'
  in
  Buffer.add_char buf '{';
  emit_group "counters" (function Metrics.Counter_v v -> Some (string_of_int v) | _ -> None);
  Buffer.add_char buf ',';
  emit_group "gauges" (function Metrics.Gauge_v v -> Some (num v) | _ -> None);
  Buffer.add_char buf ',';
  emit_group "histograms" (function
    | Metrics.Histogram_v { bounds; counts; sum; count } ->
      let b = Buffer.create 64 in
      Buffer.add_char b '{';
      json_histogram_body b bounds counts sum count;
      Buffer.add_char b '}';
      Some (Buffer.contents b)
    | _ -> None);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* What a run record keeps of the registry: the grouping of
   json_of_samples as a Jsonx value, built directly rather than printed
   and parsed back, holding only the metrics that moved. *)
let moved_json samples =
  let group pick =
    Jsonx.Obj
      (List.filter_map
         (fun { Metrics.name; value; _ } -> Option.map (fun v -> (name, v)) (pick value))
         samples)
  in
  let int v = Jsonx.Num (float_of_int v) in
  let histogram bounds counts sum count =
    let bucket i c =
      let le = if i < Array.length bounds then Jsonx.Num bounds.(i) else Jsonx.Str "+Inf" in
      Jsonx.Obj [ ("le", le); ("count", int c) ]
    in
    Jsonx.Obj
      [
        ("count", int count);
        ("sum", Jsonx.Num sum);
        ("buckets", Jsonx.Arr (Array.to_list (Array.mapi bucket (cumulative counts))));
      ]
  in
  Jsonx.Obj
    [
      ("counters", group (function Metrics.Counter_v v when v <> 0 -> Some (int v) | _ -> None));
      ("gauges", group (function Metrics.Gauge_v v when v <> 0. -> Some (Jsonx.Num v) | _ -> None));
      ( "histograms",
        group (function
          | Metrics.Histogram_v { bounds; counts; sum; count } when count > 0 ->
            Some (histogram bounds counts sum count)
          | _ -> None) );
    ]

(* ---------------------------- Prometheus ---------------------------- *)

let prom_escape_help s =
  String.concat "\\n" (String.split_on_char '\n' (String.concat "\\\\" (String.split_on_char '\\' s)))

(* Exposition-format conformance: metric names must match
   [a-zA-Z_:][a-zA-Z0-9_:]*.  Registered names are chosen by this repo and
   already conform, but the exporter is a pure function over arbitrary
   samples, so sanitize rather than trust: every invalid byte becomes '_'
   (a leading digit too, since the first-character class excludes digits),
   and an empty name becomes "_". *)
let prom_name s =
  let ok_first c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':' in
  let ok c = ok_first c || (c >= '0' && c <= '9') in
  if s = "" then "_"
  else if String.length s > 0 && ok_first s.[0] && String.for_all ok s then s
  else
    String.mapi (fun i c -> if (if i = 0 then ok_first c else ok c) then c else '_') s

(* Label values may contain any character, but backslash, double-quote and
   newline must be backslash-escaped. *)
let prom_escape_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_prometheus samples =
  let buf = Buffer.create 512 in
  List.iter
    (fun { Metrics.name; help; value } ->
      let name = prom_name name in
      if help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (prom_escape_help help));
      match value with
      | Metrics.Counter_v v ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name v)
      | Metrics.Gauge_v v ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %s\n" name name (num v))
      | Metrics.Histogram_v { bounds; counts; sum; count } ->
        Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
        let cum = cumulative counts in
        Array.iteri
          (fun i c ->
            let le = if i < Array.length bounds then num bounds.(i) else "+Inf" in
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (prom_escape_label le) c))
          cum;
        Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" name (num sum));
        Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name count))
    samples;
  (* the exposition format is line-oriented: the output must end with a
     line feed, even when there are no samples at all *)
  if Buffer.length buf = 0 || Buffer.nth buf (Buffer.length buf - 1) <> '\n' then
    Buffer.add_char buf '\n';
  Buffer.contents buf

let render = function Table -> to_table | Json -> to_json_lines | Prometheus -> to_prometheus
