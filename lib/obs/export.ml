type format = Table | Json | Prometheus

(* Number rendering for the text surfaces (table, Prometheus, human log
   records): integers stay integral, everything else goes through %.12g.
   JSON goes through Jsonx, at full precision. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

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

(* Built as Jsonx values, so every float keeps its full precision. *)
let int v = Jsonx.Num (float_of_int v)

let histogram_fields bounds counts sum count =
  let bucket i c =
    let le = if i < Array.length bounds then Jsonx.Num bounds.(i) else Jsonx.Str "+Inf" in
    Jsonx.Obj [ ("le", le); ("count", int c) ]
  in
  [
    ("count", int count);
    ("sum", Jsonx.Num sum);
    ("buckets", Jsonx.Arr (Array.to_list (Array.mapi bucket (cumulative counts))));
  ]

let json_line { Metrics.name; help; value } =
  let kind, fields =
    match value with
    | Metrics.Counter_v v -> ("counter", [ ("value", int v) ])
    | Metrics.Gauge_v v -> ("gauge", [ ("value", Jsonx.Num v) ])
    | Metrics.Histogram_v { bounds; counts; sum; count } ->
      ("histogram", histogram_fields bounds counts sum count)
  in
  let help = if help = "" then [] else [ ("help", Jsonx.Str help) ] in
  Jsonx.to_string
    (Jsonx.Obj ((("name", Jsonx.Str name) :: help) @ (("type", Jsonx.Str kind) :: fields)))
  ^ "\n"

let to_json_lines samples = String.concat "" (List.map json_line samples)

let grouped_json samples =
  let group pick =
    Jsonx.Obj
      (List.filter_map
         (fun { Metrics.name; value; _ } -> Option.map (fun v -> (name, v)) (pick value))
         samples)
  in
  Jsonx.Obj
    [
      ("counters", group (function Metrics.Counter_v v -> Some (int v) | _ -> None));
      ("gauges", group (function Metrics.Gauge_v v -> Some (Jsonx.Num v) | _ -> None));
      ( "histograms",
        group (function
          | Metrics.Histogram_v { bounds; counts; sum; count } ->
            Some (Jsonx.Obj (histogram_fields bounds counts sum count))
          | _ -> None) );
    ]

let moved_json samples =
  grouped_json
    (List.filter
       (fun { Metrics.value; _ } ->
         match value with
         | Metrics.Counter_v v -> v <> 0
         | Metrics.Gauge_v v -> v <> 0.
         | Metrics.Histogram_v { count; _ } -> count > 0)
       samples)

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
