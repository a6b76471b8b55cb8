(* The sampler follows the rule: the paper's two local families are the
   game the batch kernel plays; a Custom rule takes the closure. *)
let kernel_of inst rule =
  let make r = Some (Mc_kernel.make ~n:inst.Model.n ~delta:inst.Model.delta r) in
  match rule with
  | Model.Single_threshold a -> make (Mc_kernel.Threshold a)
  | Model.Oblivious a -> make (Mc_kernel.Oblivious a)
  | Model.Custom _ -> None

let winning_probability ?domains ?leases ~rng ~samples inst rule =
  Trace.with_span "mc_eval.winning_probability" @@ fun () ->
  Mc.probability ?domains ?leases ?kernel:(kernel_of inst rule) ~rng ~samples (fun rng ->
      (Model.play rng inst rule).Model.win)

let check_against = Mc.agrees
