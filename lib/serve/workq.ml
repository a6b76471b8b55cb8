(* Mutex-guarded FIFO with a hard depth watermark.  A waiting [pop] sleeps
   on [nonempty], which [push] signals and [close] broadcasts; Stdlib
   Condition has no timed wait, so a small C stub (workq_stubs.c) bounds
   the wait by [timeout_s].  [pop] re-checks the queue and its deadline
   after every wake, so a spurious wake only costs a look. *)

type 'a t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  q : 'a Queue.t;
  depth_watermark : int;
  mutable closed : bool;
}

type push_result = Accepted of int | Shed | Closed
type 'a pop_result = Job of 'a | Empty | Drained

(* Wait on the condition with its mutex held, at most the given seconds. *)
external timed_wait : Condition.t -> Mutex.t -> float -> unit = "ddm_workq_timed_wait"

let create ~depth =
  if depth < 1 then invalid_arg "Workq.create: depth must be >= 1";
  {
    mu = Mutex.create ();
    nonempty = Condition.create ();
    q = Queue.create ();
    depth_watermark = depth;
    closed = false;
  }

let push t x =
  Mutex.protect t.mu (fun () ->
    if t.closed then Closed
    else if Queue.length t.q >= t.depth_watermark then Shed
    else begin
      Queue.push x t.q;
      Condition.signal t.nonempty;
      Accepted (Queue.length t.q)
    end)

let pop t ~timeout_s =
  let deadline = Trace.now_mono_s () +. timeout_s in
  Mutex.protect t.mu (fun () ->
    let rec go () =
      match Queue.pop t.q with
      | x -> Job x
      | exception Queue.Empty ->
        if t.closed then Drained
        else
          let left = deadline -. Trace.now_mono_s () in
          if left <= 0. then Empty
          else begin
            timed_wait t.nonempty t.mu left;
            go ()
          end
    in
    go ())

let close t =
  Mutex.protect t.mu (fun () ->
    t.closed <- true;
    Condition.broadcast t.nonempty)

let drain_remaining t =
  Mutex.protect t.mu (fun () ->
    let xs = List.of_seq (Queue.to_seq t.q) in
    Queue.clear t.q;
    xs)

let depth t = Mutex.protect t.mu (fun () -> Queue.length t.q)
let watermark t = t.depth_watermark
