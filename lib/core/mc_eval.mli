(** Monte-Carlo evaluation of decision rules: plays the one-shot game many
    times and estimates the winning probability. Used to cross-validate the
    closed forms of Theorems 4.1, 4.3 and 5.1 on arbitrary parameter
    vectors. *)

val protocol : Model.rule -> Dist_protocol.t
(** The rule as a protocol: {!Dist_protocol.oblivious} and
    {!Dist_protocol.single_threshold} for the paper's two local families,
    and {!Dist_protocol.make} over [f me own] for a {!Model.Custom} rule. *)

val winning_probability :
  ?domains:int ->
  ?leases:int ->
  rng:Rng.t ->
  samples:int ->
  Model.instance ->
  Model.rule ->
  Mc.estimate
(** {!Engine.win_probability_mc} of [protocol rule] on the
    no-communication pattern of the instance's [n] players, at capacity
    [delta].  [?domains] (default 1) and [?leases] drive its
    lease-sharded sampler (worker-count-independent estimates at a fixed
    seed).

    The sampler follows the rule: {!Model.Oblivious} and
    {!Model.Single_threshold} rules are played by the batch kernel
    ({!Mc_kernel}, several times faster), a {!Model.Custom} rule by the
    per-play closure over {!Engine.run_once}.  Both estimate the same
    probability; they draw in different orders, so they agree
    statistically, not byte-for-byte.  Either way the run counts its
    plays in [ddm_engine_plays_total].
    @raise Invalid_argument when an oblivious/threshold rule's parameter
    array is not of length [n] or holds a non-finite value, or when a
    {!Model.Custom} rule returns a non-finite probability. *)
