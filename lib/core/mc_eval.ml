(* A rule is a protocol on the no-communication pattern, so the question
   is Engine's: the kernel plays the paper's two local families, the
   closure a Custom rule. *)
let protocol = function
  | Model.Oblivious a -> Dist_protocol.oblivious a
  | Model.Single_threshold a -> Dist_protocol.single_threshold a
  | Model.Custom f -> Dist_protocol.make ~name:"custom" (fun v -> f v.Dist_protocol.me v.own)

let winning_probability ?domains ~rng ~samples inst rule =
  Trace.with_span "mc_eval.winning_probability" @@ fun () ->
  Engine.win_probability_mc ?domains ~rng ~samples ~delta:inst.Model.delta
    (Comm_pattern.none ~n:inst.Model.n) (protocol rule)
