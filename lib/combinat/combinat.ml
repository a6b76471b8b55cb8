module B = Bigint

(* Growable memo table for factorials. *)
let fact_table = ref [| B.one |]

let factorial n =
  if n < 0 then invalid_arg "Combinat.factorial: negative";
  let t = !fact_table in
  if n < Array.length t then t.(n)
  else begin
    let old_len = Array.length t in
    let t' = Array.make (n + 1) B.one in
    Array.blit t 0 t' 0 old_len;
    for i = old_len to n do
      t'.(i) <- B.mul t'.(i - 1) (B.of_int i)
    done;
    fact_table := t';
    t'.(n)
  end

let falling_factorial n k =
  if k < 0 then invalid_arg "Combinat.falling_factorial: negative k";
  let rec go acc i = if i >= k then acc else go (B.mul acc (B.of_int (n - i))) (i + 1) in
  go B.one 0

let binomial n k =
  if n < 0 then invalid_arg "Combinat.binomial: negative n";
  if k < 0 || k > n then B.zero
  else begin
    let k = if k > n - k then n - k else k in
    B.div (falling_factorial n k) (factorial k)
  end

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let int_pow x k =
  if k < 0 then invalid_arg "Combinat.int_pow: negative exponent";
  let rec go acc x k =
    if k = 0 then acc
    else begin
      let acc = if k land 1 = 1 then acc *. x else acc in
      go acc (x *. x) (k lsr 1)
    end
  in
  go 1. x k

let fold_subsets ~n ~init ~f =
  if n < 0 || n > 62 then invalid_arg "Combinat.fold_subsets: n out of range";
  let acc = ref init in
  for mask = 0 to (1 lsl n) - 1 do
    acc := f !acc mask
  done;
  !acc

(* Gray-code walk: consecutive masks differ in exactly one bit, so the
   running subset sum is updated with a single add or subtract. *)
let fold_subset_sums_gen ~add ~sub ~zero arr ~init ~f =
  let n = Array.length arr in
  if n > 62 then invalid_arg "Combinat.fold_subset_sums_gen: too many elements";
  let acc = ref (f init ~size:0 ~sum:zero) in
  let sum = ref zero in
  let size = ref 0 in
  let gray_prev = ref 0 in
  for i = 1 to (1 lsl n) - 1 do
    let gray = i lxor (i lsr 1) in
    let changed = gray lxor !gray_prev in
    let bit =
      let rec idx b j = if b land 1 = 1 then j else idx (b lsr 1) (j + 1) in
      idx changed 0
    in
    if gray land changed <> 0 then begin
      sum := add !sum arr.(bit);
      incr size
    end
    else begin
      sum := sub !sum arr.(bit);
      decr size
    end;
    gray_prev := gray;
    acc := f !acc ~size:!size ~sum:!sum
  done;
  !acc
