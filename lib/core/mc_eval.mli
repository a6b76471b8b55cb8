(** Monte-Carlo evaluation of decision rules: plays the one-shot game many
    times and estimates the winning probability. Used to cross-validate the
    closed forms of Theorems 4.1, 4.3 and 5.1 on arbitrary parameter
    vectors. *)

val winning_probability :
  ?domains:int ->
  ?leases:int ->
  rng:Rng.t ->
  samples:int ->
  Model.instance ->
  Model.rule ->
  Mc.estimate
(** [?domains] (default 1) and [?leases] drive {!Mc.probability}'s
    lease-sharded sampler (worker-count-independent estimates at a fixed
    seed).

    The sampler follows the rule: {!Model.Oblivious} and
    {!Model.Single_threshold} rules are played by the batch kernel
    ({!Mc_kernel}, several times faster), a {!Model.Custom} rule by the
    per-play closure over {!Model.play}.  Both estimate the same
    probability; they draw in different orders, so they agree
    statistically, not byte-for-byte.
    @raise Invalid_argument when an oblivious/threshold rule's parameter
    array is not of length [n] or holds a non-finite value. *)

val check_against : Mc.estimate -> float -> bool
(** Alias of {!Mc.agrees}. *)
