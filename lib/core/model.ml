type instance = { n : int; delta : float }

let instance ~n ~delta =
  if n < 1 then invalid_arg "Model.instance: n must be >= 1";
  if not (delta > 0.) then invalid_arg "Model.instance: delta must be positive";
  { n; delta }

let py91 = instance ~n:3 ~delta:1.
let scaled ~n = instance ~n ~delta:(float_of_int n /. 3.)

type rule =
  | Oblivious of float array
  | Single_threshold of float array
  | Custom of (int -> float -> float)
