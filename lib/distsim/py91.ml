let n = 3
let delta = 1.
let beta_star = 1. -. sqrt (1. /. 7.)
let expected_no_communication = (1. /. 6.) +. (1. /. sqrt 7.)
let expected_full_information = 0.75

let no_communication = (Comm_pattern.none ~n, Dist_protocol.common_threshold ~n beta_star)

let broadcast_family p =
  Dist_protocol.make ~name:"py91-one-broadcast" (fun v ->
    let own = v.Dist_protocol.own in
    match v.Dist_protocol.me with
    | 0 -> if own <= p.(0) then 1. else 0.
    | me -> (
      let w, t = if me = 1 then (p.(1), p.(2)) else (p.(3), p.(4)) in
      match Dist_protocol.view_input v 0 with
      | Some x0 -> if own +. (w *. x0) <= t then 1. else 0.
      | None -> 0.))

(* Parameters found with Engine.optimize_family over broadcast_family (see
   bench group X1); frozen here so the rung is deterministic. The source
   almost always takes bin 0; listener 1 balances own + broadcast against a
   unit budget; listener 2 leans against the broadcast. *)
let one_broadcast =
  (Comm_pattern.broadcast ~n ~source:0, broadcast_family [| 0.998; 1.; 1.; -0.16; -0.02 |])

let greedy_partition =
  Dist_protocol.make ~name:"py91-greedy-partition" (fun v ->
    (* Deterministic common knowledge: all three players compute the same
       largest-first greedy partition and take their assigned bin. Ties go
       by player index, so no player sorts itself first on equal inputs.
       Optimal for n = 3 (greedy minimizes the makespan over two bins for
       three items). *)
    let sorted =
      List.sort
        (fun (i, a) (j, b) -> match compare b a with 0 -> compare i j | c -> c)
        ((v.Dist_protocol.me, v.Dist_protocol.own) :: v.Dist_protocol.others)
    in
    (* deal the inputs in turn to the lighter bin until our own comes up *)
    let rec deal load0 load1 = function
      | [] -> assert false (* [sorted] holds our own input *)
      | (i, x) :: rest ->
        let to0 = load0 <= load1 in
        if i = v.Dist_protocol.me then if to0 then 1. else 0.
        else if to0 then deal (load0 +. x) load1 rest
        else deal load0 (load1 +. x) rest
    in
    deal 0. 0. sorted)

let full_information = (Comm_pattern.full ~n, greedy_partition)

let ladder =
  [
    ("no communication", no_communication, expected_no_communication);
    ("one broadcast", one_broadcast, 0.659);
    ("full information", full_information, expected_full_information);
  ]
