(** Evaluation requests: wire format, canonical cache key, and the
    deadline-aware dispatch into the repo's solver pipelines.

    A request names a rule family and instance:

    {v {"rule": "threshold" | "oblivious" | "opt",
  "n": 4, "delta": "4/3",            // string rational or number; default n/3
  "params": [0.62] | 0.62 | [...],   // scalar/1-vector expands to n; default 0.5
  "mode": "exact" | "grid" | "mc",   // default "exact"
  "points": 32,                      // grid resolution per dimension (grid only)
  "samples": 100000, "seed": 42,     // mc only; samples capped, seed pins the answer
  "crash": 0.1,                      // crash rate, drop model (grid or mc mode);
                                     // the answer names it: "crash_model": "drop"
  "budget_ms": 2000} v}

    [threshold]/[oblivious] evaluate the paper's Theorem 5.1 / 4.1 closed
    forms ([exact]), the engine's midpoint-grid integration ([grid]), or a
    seed-pinned Monte-Carlo estimate ([mc], which
    {!Engine.win_probability_mc} plays on the batch kernel {!Mc_kernel},
    the paper's game; [crash > 0] needs [grid] or [mc]); [opt] runs the
    certified symbolic optimum {!Symbolic.optimal_sym_threshold}.

    [crash] folds {!Fault_model.crash_only}: a crashed player's input
    leaves the game (the {!Fault_model.Drop} model).  [ddm chaos]
    defaults to [--crash-mode bin0] instead, where it lands in bin 0, so
    the two surfaces give different answers to one question: at [n = 3],
    [delta = 1], the optimal threshold, crash rate 0.25 and 24 grid
    points, [ddm chaos] prints 0.487422 and this solver answers
    0.740051.  So every answer with [crash > 0] names its model in its
    detail (["crash_model": "drop"], via
    {!Fault_model.crash_mode_to_string}).

    {!solve} is deadline-aware: grid sweeps get a per-cell cooperative
    cancel hook and raise {!Engine.Cancelled} with partial progress when
    the budget expires; single-shot exact pipelines (including [mc],
    whose sample cap bounds its runtime) check the deadline before
    starting (mid-flight they are covered by the serve watchdog). *)

type rule = Threshold | Oblivious | Opt

type mode =
  | Exact
  | Grid of int  (** points per dimension *)
  | Mc of { samples : int; seed : int }
      (** seed-pinned batch-kernel Monte-Carlo ({!Mc_kernel}) *)

type req = {
  rule : rule;
  n : int;
  delta : Rat.t;
  params : float array;  (** thresholds / bin-0 probabilities; empty for [Opt] *)
  mode : mode;
  crash : float;  (** player crash rate folded into the grid integrand *)
  budget_ms : int option;  (** per-request deadline override *)
}

val parse : string -> (req, string) result
(** Parse and validate a request body.  [Error] carries a
    client-attributable message (unknown rule, out-of-range [n]/[crash],
    [crash > 0] without grid mode, ...). *)

val cache_key : req -> string
(** Canonical identity of the {e answer}: rule family, [n], exact
    [delta], parameters at full precision, mode, and crash rate.
    [budget_ms] is excluded — the deadline shapes whether an answer is
    produced, not its value.  The key carries a format prefix ([v3|]):
    a build whose evaluators answer differently bumps it, so answers an
    older build stored in a durable cache miss instead of being served
    ([v3] added [crash_model] to crash answers). *)

type answer = {
  p : float;  (** winning probability (the optimum's value for [Opt]) *)
  detail : (string * Jsonx.t) list;
      (** rule-specific extras, e.g. [beta_star] and its exact rational
          form for [Opt] *)
}

val answer_to_json : answer -> Jsonx.t
val answer_of_json : Jsonx.t -> (answer, string) result
(** Inverse of {!answer_to_json}; how cached values rehydrate. *)

val solve : ?domains:int -> deadline_mono_s:float -> req -> answer
(** Evaluate, honoring the deadline (monotonic absolute,
    {!Trace.now_mono_s} clock).

    [domains] (default 1) is the worker count of the solve's own
    lease-sharded evaluators — grid sweeps ({!Engine.win_probability_grid},
    crash folds included), the threshold 2^n subset fold, and the [mc]
    batch kernel ({!Mc_kernel.run}).  Each answer is a function of the
    request alone (an [mc] estimate of [(seed, samples)]), so it
    is bit-identical for every [domains] and {!cache_key} stays
    [domains]-independent by construction.  Grid cancellation fires at
    every [domains], with merged progress across leases.  The [opt]
    symbolic pipeline and the n+1-term oblivious closed form are
    single-threaded.
    @raise Engine.Cancelled when the budget expires mid-sweep (or before
    an un-cancellable exact pipeline starts), with partial progress.
    @raise Invalid_argument on instance limits (grid too large). *)

