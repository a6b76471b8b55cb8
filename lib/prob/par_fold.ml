let leases = 64

let run_leases ?(span = "par.lease") ~domains ~leases run =
  if domains < 1 then invalid_arg "Par_fold.run_leases: domains must be >= 1";
  if leases < 0 then invalid_arg "Par_fold.run_leases: leases must be >= 0";
  if domains = 1 || leases <= 1 then
    (* Inline: the leases run in order on the calling domain, under its
       caller's span, so they get no span of their own. *)
    Array.init leases run
  else begin
    let results = Array.make leases None in
    let next = Atomic.make 0 in
    (* Raised exceptions (a worker bug, or a cooperative-cancellation raise
       reaching up through [run]) park the pool: leases already running
       finish or raise on their own, but no new lease starts. *)
    let stop = Atomic.make false in
    let run_lease i =
      Trace.with_span span @@ fun () ->
      (* Slots are disjoint per lease and published to the main domain by
         Domain.join's happens-before edge. *)
      results.(i) <- Some (run i)
    in
    let rec worker () =
      if not (Atomic.get stop) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < leases then begin
          (try run_lease i
           with e ->
             Atomic.set stop true;
             raise e);
          worker ()
        end
      end
    in
    let spawned =
      Array.init
        (min (domains - 1) leases)
        (fun _ ->
          Domain.spawn (fun () ->
              worker ();
              (* Hand tracing back to the main domain; an empty list when
                 tracing is off. *)
              Trace.drain ()))
    in
    let main_exn = (try worker (); None with e -> Some e) in
    (* Join every domain even if one raised, so no worker outlives the
       call; re-raise the main domain's exception first. *)
    let joined = Array.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned in
    Array.iter (function Ok spans -> Trace.absorb spans | Error _ -> ()) joined;
    (match main_exn with Some e -> raise e | None -> ());
    Array.iter (function Error e -> raise e | Ok _ -> ()) joined;
    Array.map
      (function
        | Some v -> v
        | None ->
          (* Unreachable: a missing slot means some lease raised, and that
             exception was re-raised above. *)
          assert false)
      results
  end

(* Lease i of [leases] owns [items / leases] indices plus one of the
   remainder, so the shares differ by at most one and every index is owned
   by exactly one lease.  Ranges are contiguous and in index order: lease i
   covers [lease_start i, lease_start (i + 1)). *)
let lease_start ~leases ~items i =
  let base = items / leases and extra = items mod leases in
  (i * base) + if i < extra then i else extra

(* Debug start/done records around one pool run, for both entry points. *)
let logged event ~domains ~leases (what, count) run =
  if not (Logx.would_log Logx.Debug) then run ()
  else begin
    Logx.debug (event ^ ".start")
      [ ("domains", Logx.Int domains); ("leases", Logx.Int leases); (what, Logx.Int count) ];
    let t0 = Trace.now_mono_s () in
    let r = run () in
    Logx.debug (event ^ ".done")
      [ (what, Logx.Int count); ("wall_s", Logx.Float (Trace.now_mono_s () -. t0)) ];
    r
  end

let fold_ranges ?span ~domains ~items ~init ~range ~merge () =
  if domains < 1 then invalid_arg "Par_fold.fold: domains must be >= 1";
  if items < 0 then invalid_arg "Par_fold.fold: items must be >= 0";
  (* A lease past the last item would fold nothing and merge as [init ()],
     the identity, so capping the count changes no result — it only spares
     small folds the empty slots. *)
  let leases = max 1 (min leases items) in
  logged "par.fold" ~domains ~leases ("items", items) @@ fun () ->
  let start = lease_start ~leases ~items in
  let parts =
    run_leases ?span ~domains ~leases (fun i -> range (init ()) ~lo:(start i) ~hi:(start (i + 1)))
  in
  Array.fold_left merge (init ()) parts

let sample ?span ~domains ~rng ~samples run =
  if domains < 1 then invalid_arg "Par_fold.sample: domains must be >= 1";
  if samples < 0 then invalid_arg "Par_fold.sample: samples must be >= 0";
  logged "par.sample" ~domains ~leases ("samples", samples) @@ fun () ->
  (* Every stream is split off up front, in lease order, so lease i's draws
     depend only on (root seed, i), never on scheduling.  The lease
     count is not capped: the root always advances by [leases] splits. *)
  let streams = Array.init leases (fun _ -> Rng.split rng) in
  let start = lease_start ~leases ~items:samples in
  run_leases ?span ~domains ~leases (fun i -> run streams.(i) (start (i + 1) - start i))

let fold ?span ~domains ~items ~init ~step ~merge () =
  fold_ranges ?span ~domains ~items ~init ~merge
    ~range:(fun acc ~lo ~hi ->
      let acc = ref acc in
      for k = lo to hi - 1 do
        acc := step !acc k
      done;
      !acc)
    ()

let sum ?span ~domains ~items f =
  fold ?span ~domains ~items
    ~init:(fun () -> 0.)
    ~step:(fun acc k -> acc +. f k)
    ~merge:( +. ) ()
