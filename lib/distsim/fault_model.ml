type crash_mode = Drop | Default_bin of int

type t = {
  crash : float;
  crash_mode : crash_mode;
  link_loss : float;
  stale : float;
  noise : float;
  jitter : float;
}

let none = { crash = 0.; crash_mode = Drop; link_loss = 0.; stale = 0.; noise = 0.; jitter = 0. }

let check_prob what p =
  if not (Float.is_finite p && p >= 0. && p <= 1.) then
    invalid_arg (Printf.sprintf "Fault_model: %s = %h is not a probability in [0,1]" what p)

let validate t =
  check_prob "crash" t.crash;
  check_prob "link_loss" t.link_loss;
  check_prob "stale" t.stale;
  (* noise is an amplitude, not a probability, but views live in [0,1] so a
     wider perturbation is meaningless; jitter is relative to delta. *)
  check_prob "noise" t.noise;
  check_prob "jitter" t.jitter;
  match t.crash_mode with
  | Drop -> ()
  | Default_bin b when b = 0 || b = 1 -> ()
  | Default_bin b -> invalid_arg (Printf.sprintf "Fault_model: Default_bin %d (bins are 0 and 1)" b)

let make ?(crash = 0.) ?(crash_mode = Drop) ?(link_loss = 0.) ?(stale = 0.) ?(noise = 0.)
    ?(jitter = 0.) () =
  let t = { crash; crash_mode; link_loss; stale; noise; jitter } in
  validate t;
  t

let crash_only p = make ~crash:p ()

let is_none t =
  t.crash = 0. && t.link_loss = 0. && t.stale = 0. && t.noise = 0. && t.jitter = 0.

let crash_foldable t =
  t.link_loss = 0. && t.stale = 0. && t.noise = 0. && t.jitter = 0.

let crash_mode_to_string = function
  | Drop -> "drop"
  | Default_bin b -> Printf.sprintf "bin%d" b

let to_string t =
  Printf.sprintf "faults(crash=%.3g/%s loss=%.3g stale=%.3g noise=%.3g jitter=%.3g)" t.crash
    (crash_mode_to_string t.crash_mode)
    t.link_loss t.stale t.noise t.jitter
