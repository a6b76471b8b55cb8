(** The distributed decision-making model of Section 3.

    [n] players each receive a private input [x_i ~ U[0,1]] and choose one of
    two bins, each of capacity [δ] (the paper's parameter [t]), with no
    communication. The system {e wins} when neither bin overflows:
    [Σ_0 <= δ] and [Σ_1 <= δ], where [Σ_b] sums the inputs of the players
    that chose bin [b]. *)

type instance = { n : int; delta : float }

val instance : n:int -> delta:float -> instance
(** @raise Invalid_argument unless [n >= 1] and [delta > 0]. *)

type instance_exact = { n_exact : int; delta_exact : Rat.t }

val instance_exact : n:int -> delta:Rat.t -> instance_exact

val py91 : instance
(** The Papadimitriou-Yannakakis instance: [n = 3], [δ = 1]. *)

val scaled : n:int -> instance
(** The paper's scaling that keeps the problem comparable as [n] grows:
    [δ = n/3] (so [n = 3] gives [δ = 1] and [n = 4] gives [δ = 4/3],
    the two instances solved in Section 5.2). *)

val scaled_exact : n:int -> instance_exact

(** {1 Local decision rules (the no-communication case, Section 3.2)}

    A rule maps a player's index and private input to the probability of
    choosing bin 0. *)

type rule =
  | Oblivious of float array
      (** [Oblivious α]: player [i] ignores its input and picks bin 0 with
          probability [α.(i)]. *)
  | Single_threshold of float array
      (** [Single_threshold a]: player [i] picks bin 0 iff [x_i <= a.(i)]. *)
  | Custom of (int -> float -> float)
      (** [Custom f]: player [i] picks bin 0 with probability [f i x_i]. *)

val prob_bin0 : rule -> int -> float -> float
(** [prob_bin0 rule i x]: probability that player [i] chooses bin 0 on
    input [x]. *)

(** One-shot plays are {!Engine.run_once}'s: {!Mc_eval.protocol} turns a
    rule into the protocol it plays on the no-communication pattern. *)
