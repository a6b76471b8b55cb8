(** Communication patterns.

    Papadimitriou-Yannakakis [11] study how the achievable winning
    probability grows with the amount of communication; the paper reproduced
    here settles the no-communication case and notes (Section 6) that its
    framework extends to arbitrary patterns. A pattern records, for each
    player, which {e other} players' inputs it observes before deciding
    (every player always receives its own input; oblivious rules simply
    ignore it). *)

type t

val n : t -> int

val sees : t -> int -> int list
(** [sees t i]: sorted indices [j <> i] whose inputs player [i] observes. *)

val observes : t -> viewer:int -> source:int -> bool

val make : n:int -> (int -> int list) -> t
(** Normalizes (sorts, dedups, drops self and out-of-range indices). *)

(** {1 Standard patterns} *)

val none : n:int -> t
(** No communication — the regime settled by the paper. *)

val broadcast : n:int -> source:int -> t
(** Player [source] announces its input to everyone. *)

val chain : n:int -> t
(** Player [i] observes the inputs of players [0 .. i-1] (one-way chain). *)

val full : n:int -> t
(** Complete information. *)

val ring : n:int -> t
(** Player [i] observes player [(i-1) mod n]. *)

val k_hop : n:int -> k:int -> t
(** Player [i] observes all players within ring distance [k] (both
    directions); [k >= n/2] degenerates to {!full}. Interpolates between
    {!none} ([k = 0]) and complete information. *)

(** {1 Accounting} *)

val edges : t -> (int * int) list
(** Directed [(source, viewer)] pairs. *)

val message_count : t -> int
(** Number of directed input revelations — the communication cost used in
    the trade-off experiment (X1). *)

val to_string : t -> string
