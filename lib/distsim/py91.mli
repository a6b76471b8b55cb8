(** The Papadimitriou-Yannakakis three-player ladder (PODC 1991).

    PY91 asked how the best winning probability at [n = 3, δ = 1] grows with
    the information available to the players; the reproduced paper settles
    the bottom rung (no communication) exactly. This module packages one
    protocol per rung so the ladder can be run end to end on the {!Engine}
    ({!ladder} lists them in this order):

    - no communication: the optimal single common threshold
      [β* = 1 − √(1/7)], winning probability [1/6 + 1/√7 ≈ 0.5446]
      (certified by [Symbolic] in [ddm_core]; the constant is inlined here
      to keep the dependency direction substrate → core);
    - one broadcast: player 0 announces its input; {!broadcast_family}
      at [[|0.998; 1; 1; -0.16; -0.02|]], frozen numerically optimized
      parameters, achieving [≈ 0.66] (PY91's exact optimum for this rung
      is not in the available text);
    - {!full_information}: everyone sees everything; {!greedy_partition}
      is optimal for three players, achieving the feasibility bound [3/4].

    Bench X1 and [examples/communication_value.ml] optimize and score the
    same two protocols. *)

val delta : float
(** The PY91 capacity, [1.]. *)

val broadcast_family : float array -> Dist_protocol.t
(** The one-broadcast family at [p = [|t0; w1; t1; w2; t2|]]: the source,
    player 0, picks bin 0 iff [own <= t0]; listener [i] (1, then 2 and
    up) picks bin 0 iff [own + w_i · x0 <= t_i], and bin 1 when the
    broadcast [x0] is missing from its view. *)

val greedy_partition : Dist_protocol.t
(** The full-information rule: every player sorts all inputs largest
    first, ties broken by player index, deals them in turn to the lighter
    bin (bin 0 on equal loads), and takes its own input's bin.  All
    players compute the same partition, so for three players it wins
    exactly when some partition fits. *)

val full_information : Comm_pattern.t * Dist_protocol.t
(** {!greedy_partition} on [Comm_pattern.full]. *)

val ladder : (string * (Comm_pattern.t * Dist_protocol.t) * float) list
(** All rungs with their expected winning probabilities (closed form for the
    first and last, measured for the middle one). *)

val expected_no_communication : float
(** [1/6 + 1/√7]. *)
