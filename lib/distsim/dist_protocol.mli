(** Decision protocols over a communication pattern.

    A protocol assigns each player a local decision rule mapping its {e view}
    — its own input plus the inputs revealed by the pattern — to a
    probability of choosing bin 0. The constructors cover the families
    studied in the literature: oblivious coin flips, single thresholds on the
    own input (the paper's Section 5), and the weighted-average-threshold
    family of Papadimitriou-Yannakakis. *)

type view = {
  me : int;  (** the deciding player *)
  own : float;  (** its private input *)
  others : (int * float) list;  (** revealed inputs, sorted by index *)
}

val view_input : view -> int -> float option
(** The input of a given player if visible in this view (including [me]). *)

type t

val name : t -> string
val decide : t -> view -> float
(** Probability of choosing bin 0. *)

val local_rule : t -> Mc_kernel.rule option
(** The batch kernel's form of the protocol, when its decision depends
    only on the deciding player's own input: [Some] for the
    {!oblivious} / {!fair_coin} / {!single_threshold} /
    {!common_threshold} families; [None] for {!make},
    {!weighted_threshold} and {!with_fallback}, whose decisions can read
    the rest of the view.  {!Engine.kernel_spec} uses this to hand a
    no-communication run to {!Mc_kernel}, which never calls [decide]. *)

val make : name:string -> (view -> float) -> t

(** {1 Standard families} *)

val oblivious : float array -> t
(** Player [i] picks bin 0 with probability [alpha.(i)], ignoring the view. *)

val fair_coin : n:int -> t
(** The optimal oblivious protocol (Theorem 4.3): every [alpha_i = 1/2]. *)

val single_threshold : float array -> t
(** Player [i] picks bin 0 iff [own <= a.(i)]. *)

val common_threshold : n:int -> float -> t

val weighted_threshold : weights:float array array -> thresholds:float array -> t
(** Player [i] picks bin 0 iff [Σ_j w.(i).(j) · x_j <= thresholds.(i)],
    summing only over inputs visible in the view ([x_i] itself included).
    This is the Papadimitriou-Yannakakis protocol shape.
    @raise Invalid_argument at construction when [weights] and
    [thresholds] disagree on the player count or a weight row is not
    square with it. *)

(** {1 Resilient combinators}

    All parametric families above validate their parameter vectors against
    the deciding player ([Invalid_argument] naming the family, instead of
    an [Index out of bounds] mid-simulation). The combinator below keeps a
    protocol well-defined when links go missing and counts every degraded
    decision in the [ddm_faults_*] metrics family. *)

val with_fallback : expected:Comm_pattern.t -> t -> t
(** [with_fallback ~expected p] runs [p] on views that reveal every link
    [expected] promises to the deciding player, and routes incomplete
    views (lost links, crashed senders — see {!Fault_model}) to the fair
    coin instead, the paper's optimal no-information rule. Fallbacks
    taken are counted in [ddm_faults_fallbacks_total]. *)
