(** Composable fault models for the distributed load-balancing game.

    The paper's setting is already decision-making under missing
    information; a fault model makes the missing-ness adversarial. Every
    fault dimension is a per-play, per-site rate drawn from the run's
    seeded {!Rng}, so a chaos run is exactly as reproducible as a clean
    one. Two samplers read the model: [Engine]'s per-play closure, through
    its [?faults] argument, and the batch kernel ({!Mc_kernel.make}), which
    plays the crash, noise and jitter dimensions for local rules. *)

type crash_mode =
  | Drop  (** a crashed player's input reaches neither bin *)
  | Default_bin of int
      (** a crashed player's input lands in a fixed default bin (a stuck
          scheduler route); the bin must be 0 or 1 *)

type t = {
  crash : float;  (** per-player probability of crashing before deciding *)
  crash_mode : crash_mode;  (** what a crashed player's input does *)
  link_loss : float;  (** per-link probability a revealed input is lost *)
  stale : float;
      (** per-link probability the revealed value is a stale read: an
          independent U[0,1] draw from an earlier epoch replaces it *)
  noise : float;
      (** view-perturbation amplitude: every value a player observes
          (its own input included) is shifted by U[-noise, +noise] and
          clamped to [0,1]; true inputs still determine the loads *)
  jitter : float;
      (** relative bin-capacity jitter: each play judges feasibility
          against [delta * (1 + U[-jitter, +jitter])] *)
}

val none : t
(** The fault-free model: [Engine.run_once] under [~faults:none]
    replays the clean [Engine.run_once] draw-for-draw. *)

val make :
  ?crash:float ->
  ?crash_mode:crash_mode ->
  ?link_loss:float ->
  ?stale:float ->
  ?noise:float ->
  ?jitter:float ->
  unit ->
  t
(** All rates default to 0; validates. *)

val crash_only : float -> t
(** [crash_only c]: players crash at rate [c] under the {!Drop} model, a
    crashed player's input leaving the game.  This is the model the
    [ddm serve] solver folds for a request's [crash] rate, while
    [ddm chaos] defaults to [--crash-mode bin0]; the two answer the same
    question differently.  At [n = 3], [delta = 1], the optimal common
    threshold, crash rate 0.25 and 24 grid points the drop model wins
    with probability 0.740051 and the bin-0 model with 0.487422.  For
    another mode, call {!make} with [~crash_mode]. *)

val validate : t -> unit
(** @raise Invalid_argument on a rate outside [[0,1]] (noise and jitter
    included: views and relative capacity both live on the unit scale) or
    a default bin other than 0/1. *)

val is_none : t -> bool

val crash_foldable : t -> bool
(** Only the crash dimension is active: the model folds analytically over
    the [2^n] crash subsets, so [Engine.win_probability_given] is
    exact. *)

val crash_mode_to_string : crash_mode -> string
val to_string : t -> string
