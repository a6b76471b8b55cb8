(** Monte-Carlo evaluation of decision rules: plays the one-shot game many
    times and estimates the winning probability. Used to cross-validate the
    closed forms of Theorems 4.1, 4.3 and 5.1 on arbitrary parameter
    vectors. *)

val winning_probability :
  ?domains:int ->
  ?leases:int ->
  ?kernel:bool ->
  rng:Rng.t ->
  samples:int ->
  Model.instance ->
  Model.rule ->
  Mc.estimate
(** [?domains] (default 1) and [?leases] drive {!Mc.probability}'s
    lease-sharded sampler (worker-count-independent estimates at a fixed
    seed).
    [~kernel:true] routes {!Model.Oblivious} / {!Model.Single_threshold}
    rules through the batch kernel ({!Mc_kernel}): statistically identical
    to the scalar path at the same seed, several times faster, same [-j]
    bit-identity.
    @raise Invalid_argument for [~kernel:true] with a {!Model.Custom}
    rule. *)

val check_against : Mc.estimate -> float -> bool
(** Alias of {!Mc.agrees}. *)
