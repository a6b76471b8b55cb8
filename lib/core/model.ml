type instance = { n : int; delta : float }

let instance ~n ~delta =
  if n < 1 then invalid_arg "Model.instance: n must be >= 1";
  if not (delta > 0.) then invalid_arg "Model.instance: delta must be positive";
  { n; delta }

type instance_exact = { n_exact : int; delta_exact : Rat.t }

let instance_exact ~n ~delta =
  if n < 1 then invalid_arg "Model.instance_exact: n must be >= 1";
  if Rat.sign delta <= 0 then invalid_arg "Model.instance_exact: delta must be positive";
  { n_exact = n; delta_exact = delta }

let py91 = instance ~n:3 ~delta:1.
let scaled ~n = instance ~n ~delta:(float_of_int n /. 3.)
let scaled_exact ~n = instance_exact ~n ~delta:(Rat.of_ints n 3)

type rule =
  | Oblivious of float array
  | Single_threshold of float array
  | Custom of (int -> float -> float)

let prob_bin0 rule i x =
  match rule with
  | Oblivious a -> a.(i)
  | Single_threshold a -> if x <= a.(i) then 1. else 0.
  | Custom f -> f i x
