type view = { me : int; own : float; others : (int * float) list }

let view_input v j =
  if j = v.me then Some v.own else List.assoc_opt j v.others

(* Local rules depend only on the deciding player's own input; recording
   the standard family's rule lets the batch kernel (Mc_kernel, via
   Engine.kernel_spec) replay it without calling [decide] per sample.  The
   closure stays authoritative — [local_rule] is an introspection hint
   that must describe the same decision function. *)
type t = { name : string; decide : view -> float; local_rule : Mc_kernel.rule option }

let name t = t.name
let decide t view = t.decide view
let local_rule t = t.local_rule

let make ~name decide = { name; decide; local_rule = None }

(* Resilience instrumentation (the ddm_faults_* family; Engine keeps the
   injection-side counters). *)
let fallbacks =
  Metrics.counter ~help:"Decisions routed to a fallback protocol on an incomplete view"
    "ddm_faults_fallbacks_total"

(* Parameter vectors are indexed by player: catch a vector/player-count
   mismatch at construction (empty) or on first decide (short vector) with
   an error naming the family, instead of a bare Index out of bounds deep
   inside a simulation. *)
let check_nonempty family len =
  if len = 0 then invalid_arg (Printf.sprintf "Dist_protocol.%s: empty parameter array" family)

let check_player family len v =
  if v.me < 0 || v.me >= len then
    invalid_arg
      (Printf.sprintf
         "Dist_protocol.%s: player %d is outside the parameter array of length %d (protocol \
          built for fewer players than the pattern has?)"
         family v.me len)

let oblivious alphas =
  let len = Array.length alphas in
  check_nonempty "oblivious" len;
  {
    (make ~name:"oblivious" (fun v ->
       check_player "oblivious" len v;
       alphas.(v.me)))
    with
    local_rule = Some (Mc_kernel.Oblivious (Array.copy alphas));
  }

let fair_coin ~n = { (oblivious (Array.make n 0.5)) with name = "fair-coin" }

let single_threshold a =
  let len = Array.length a in
  check_nonempty "single_threshold" len;
  {
    (make ~name:"single-threshold" (fun v ->
       check_player "single_threshold" len v;
       if v.own <= a.(v.me) then 1. else 0.))
    with
    local_rule = Some (Mc_kernel.Threshold (Array.copy a));
  }

let common_threshold ~n beta =
  { (single_threshold (Array.make n beta)) with
    name = Printf.sprintf "common-threshold(%.4f)" beta }

let weighted_threshold ~weights ~thresholds =
  let n = Array.length weights in
  check_nonempty "weighted_threshold" n;
  if Array.length thresholds <> n then
    invalid_arg
      (Printf.sprintf
         "Dist_protocol.weighted_threshold: %d weight rows but %d thresholds (need one of each \
          per player)"
         n (Array.length thresholds));
  Array.iteri
    (fun i row ->
      if Array.length row <> n then
        invalid_arg
          (Printf.sprintf
             "Dist_protocol.weighted_threshold: weight row %d has length %d, expected %d (one \
              weight per player)"
             i (Array.length row) n))
    weights;
  make ~name:"weighted-threshold" (fun v ->
    check_player "weighted_threshold" n v;
    let w = weights.(v.me) in
    let acc = ref (w.(v.me) *. v.own) in
    List.iter
      (fun (j, x) ->
        if j < 0 || j >= n then
          invalid_arg
            (Printf.sprintf
               "Dist_protocol.weighted_threshold: view reveals player %d but weights cover only \
                %d players"
               j n);
        acc := !acc +. (w.(j) *. x))
      v.others;
    if !acc <= thresholds.(v.me) then 1. else 0.)

(* ------------------------- resilient combinators ------------------------- *)

let view_complete ~expected v =
  List.for_all (fun j -> List.mem_assoc j v.others) (Comm_pattern.sees expected v.me)

let with_fallback ~expected inner =
  let fallback = fair_coin ~n:(Comm_pattern.n expected) in
  {
    name = Printf.sprintf "%s+fallback(%s)" inner.name fallback.name;
    (* Not a pure local rule: which branch decides depends on the view's
       completeness, which the kernel cannot see. *)
    local_rule = None;
    decide =
      (fun v ->
        if view_complete ~expected v then inner.decide v
        else begin
          Metrics.incr fallbacks;
          fallback.decide v
        end);
  }
