(* Chrome trace-event JSON export (the format Perfetto and chrome://tracing
   load).  Each recorded span becomes a ph:"X" complete event on the track
   of the domain it ran on (tid = Domain.self at record time), with the
   span's depth and allocated words attached as args.  A thread_name metadata
   event labels every track, and the optional Snapring history becomes
   ph:"C" counter events so counter evolution lines up with the spans.

   Timestamps: the trace-event clock is microseconds from an arbitrary
   origin; we rebase on the earliest span start (or counter sample) so
   traces start at ts=0 regardless of wall-clock epoch. *)

let int v = Jsonx.Num (float_of_int v)
let args fields = [ ("args", Jsonx.Obj fields) ]

let event ~ph ~name ~tid ~ts_us extra =
  Jsonx.Obj
    (("name", Jsonx.Str name) :: ("ph", Jsonx.Str ph) :: ("pid", int 1) :: ("tid", int tid)
    :: ("ts", Jsonx.Num ts_us) :: extra)

let json ?(counters = []) spans =
  let t0 =
    List.fold_left
      (fun acc (s : Trace.span) -> Float.min acc s.Trace.start_s)
      (List.fold_left (fun acc (c : Snapring.sample) -> Float.min acc c.Snapring.t_s) infinity counters)
      spans
  in
  let t0 = if Float.is_finite t0 then t0 else 0. in
  let ts_of wall_s = (wall_s -. t0) *. 1e6 in
  (* one thread_name metadata event per distinct tid, so Perfetto labels
     the tracks "domain N" instead of bare numbers *)
  let tids =
    List.sort_uniq compare (List.map (fun (s : Trace.span) -> s.Trace.tid) spans)
  in
  let metadata =
    List.map
      (fun tid ->
        event ~ph:"M" ~name:"thread_name" ~tid ~ts_us:0.
          (args [ ("name", Jsonx.Str (Printf.sprintf "domain %d" tid)) ]))
      tids
  in
  let complete =
    List.map
      (fun (s : Trace.span) ->
        event ~ph:"X" ~name:s.Trace.name ~tid:s.Trace.tid ~ts_us:(ts_of s.Trace.start_s)
          (("cat", Jsonx.Str "span") :: ("dur", Jsonx.Num (s.Trace.dur_s *. 1e6))
          :: args
               [ ("depth", int s.Trace.depth); ("minor_words", Jsonx.Num s.Trace.minor_words);
                 ("major_words", Jsonx.Num s.Trace.major_words) ]))
      spans
  in
  (* counter tracks: [points] reads a sample as (track, value, nonzero)
     triples, and each becomes a ph:"C" event; a track that reads zero in
     every sample is skipped to keep the track list readable *)
  let tracks points =
    let live =
      List.sort_uniq compare
        (List.concat_map
           (fun c -> List.filter_map (fun (k, _, nz) -> if nz then Some k else None) (points c))
           counters)
    in
    List.concat_map
      (fun (c : Snapring.sample) ->
        List.filter_map
          (fun (k, v, _) ->
            if List.mem k live then
              Some
                (event ~ph:"C" ~name:k ~tid:0 ~ts_us:(ts_of c.Snapring.t_s)
                   (args [ ("value", v) ]))
            else None)
          (points c))
      counters
  in
  let counter_tracks =
    tracks (fun c -> List.map (fun (k, v) -> (k, int v, v <> 0)) c.Snapring.counters)
  in
  (* each sampled histogram contributes a [name_count] and a [name_sum]
     track, so request rate and latency mass plot over time next to the
     spans; a never-observed histogram is skipped like a zero counter *)
  let histogram_tracks =
    tracks (fun c ->
      List.concat_map
        (fun (k, (n, sum)) ->
          [ (k ^ "_count", int n, n <> 0); (k ^ "_sum", Jsonx.Num sum, n <> 0) ])
        c.Snapring.histograms)
  in
  let events = List.concat [ metadata; complete; counter_tracks; histogram_tracks ] in
  Jsonx.to_string
    (Jsonx.Obj [ ("displayTimeUnit", Jsonx.Str "ms"); ("traceEvents", Jsonx.Arr events) ])
  ^ "\n"

let write ~file ?counters spans =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (json ?counters spans))
