(** Bounded multi-producer/multi-consumer work queue with load shedding.

    The admission point of the serve pipeline: {!push} past the depth
    watermark answers [Shed] instead of queueing (the caller turns that
    into 429), and a closed queue answers [Closed] (503 while
    draining).  Jobs already accepted survive {!close} — consumers keep
    draining until the queue is both closed and empty, which is exactly
    the graceful-drain contract. *)

type 'a t

type push_result =
  | Accepted of int  (** queue depth including the new job *)
  | Shed  (** at the watermark; nothing was enqueued *)
  | Closed  (** draining; nothing was enqueued *)

type 'a pop_result =
  | Job of 'a
  | Empty  (** timeout expired with nothing queued *)
  | Drained  (** closed and empty: consumers should exit *)

val create : depth:int -> 'a t
(** @raise Invalid_argument when [depth < 1]. *)

val push : 'a t -> 'a -> push_result
val pop : 'a t -> timeout_s:float -> 'a pop_result
(** Blocks until a job arrives, the queue closes or [timeout_s] passes.
    A waiting [pop] is woken by {!push} or {!close}; [timeout_s] bounds
    the wait, so a worker loop still gets back to its supersession flag. *)

val close : 'a t -> unit
(** Stop admitting; queued jobs remain poppable.  Idempotent. *)

val drain_remaining : 'a t -> 'a list
(** Atomically take everything still queued (used after the drain
    deadline to fail leftovers explicitly rather than drop them). *)

val depth : 'a t -> int
val watermark : 'a t -> int
