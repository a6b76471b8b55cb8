(** Numeric optimizers.

    The exact (Sturm-based) pipeline in [ddm_core] certifies optima of the
    symmetric problems; these numeric routines handle the cases with no
    symbolic form — non-symmetric threshold vectors and the communication-
    pattern extension protocols. All routines {e maximize}. *)

(** {1 One-dimensional} *)

val grid_max : f:(float -> float) -> lo:float -> hi:float -> points:int -> float * float
(** Evaluates on an inclusive uniform grid; returns [(argmax, max)]. *)

val golden_section : f:(float -> float) -> lo:float -> hi:float -> unit -> float * float
(** Golden-section search; assumes unimodality on [[lo, hi]].  Stops when
    the bracket is narrower than [1e-12] or after 200 iterations. *)

val grid_then_golden :
  f:(float -> float) -> lo:float -> hi:float -> ?points:int -> unit -> float * float
(** Coarse grid to bracket the global maximum of a possibly multimodal
    function, then golden-section polish inside the best bracket. *)

(** {1 Multi-dimensional} *)

val nelder_mead :
  f:(float array -> float) ->
  x0:float array ->
  ?scale:float ->
  ?tol:float ->
  ?max_iter:int ->
  unit ->
  float array * float
(** Downhill-simplex maximization from [x0]; [scale] sets the initial simplex
    edge (default [0.1]). Returns [(argmax, max)]. *)

val coordinate_ascent :
  f:(float array -> float) ->
  x0:float array ->
  bounds:(float * float) array ->
  unit ->
  float array * float
(** Cyclic 1-D [grid_then_golden] over each coordinate within its bounds,
    for at most 50 sweeps; a sweep that raises the value by no more than
    [1e-11] ends the ascent. *)
