(** Monte-Carlo estimation harness: every closed-form result of the paper is
    cross-checked against simulation through these entry points. *)

type estimate = {
  mean : float;
  stderr : float;
  ci95 : float * float;
  samples : int;
}

val pp_estimate : Format.formatter -> estimate -> unit

val probability :
  ?domains:int ->
  ?kernel:Mc_kernel.t ->
  rng:Rng.t ->
  samples:int ->
  (Rng.t -> bool) ->
  estimate
(** Bernoulli estimation with a Wilson 95% interval.

    The run is sharded over {!Par_fold.leases} lease-owned [Rng.split]
    streams ({!Par_fold.sample}) executed by [?domains] (default 1)
    domains; the estimate is a function of [(seed, samples)] and
    bit-identical for every [domains >= 1].  The sampling closure must
    be safe to run on other domains (pure up to its own [Rng.t] draws —
    all closures in this repository qualify).

    With [?kernel] the closure is never called: the batch kernel plays
    the spec's game and [wins/samples] is the estimate.  The kernel draws
    in a different order than the scalar loop, so its estimate agrees
    with the closure path statistically (same seed, {!agrees}-close), not
    byte-for-byte; the [-j] bit-identity contract above still holds
    verbatim on the kernel path.  Callers do not choose the sampler:
    {!Engine.win_probability_mc} (which {!Mc_eval.winning_probability}
    calls) passes a spec exactly when the question is the paper's
    no-communication game, which the kernel plays. *)

val agrees : estimate -> float -> bool
(** [agrees e v]: does [v] fall within the (slightly widened) 95% interval?
    Used by tests comparing closed forms against simulation. *)
