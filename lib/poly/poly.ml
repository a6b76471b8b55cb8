(* Dense univariate polynomials over Rat, little-endian, trimmed. *)

module B = Bigint

type t = Rat.t array

let trim a =
  let n = ref (Array.length a) in
  while !n > 0 && Rat.is_zero a.(!n - 1) do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let zero : t = [||]
let constant c = if Rat.is_zero c then zero else [| c |]
let one = constant Rat.one
let x : t = [| Rat.zero; Rat.one |]

let monomial c k =
  if Rat.is_zero c then zero
  else begin
    let a = Array.make (k + 1) Rat.zero in
    a.(k) <- c;
    a
  end

let of_list l = trim (Array.of_list l)
let of_int_list l = of_list (List.map Rat.of_int l)
let of_string_list l = of_list (List.map Rat.of_string l)
let linear a b = trim [| a; b |]
let degree p = Array.length p - 1
let coeff p k = if k >= 0 && k < Array.length p then p.(k) else Rat.zero
let coeffs p = Array.copy p
let leading p = if Array.length p = 0 then Rat.zero else p.(Array.length p - 1)
let is_zero p = Array.length p = 0
let equal p q = Array.length p = Array.length q && Array.for_all2 Rat.equal p q
let neg p = Array.map Rat.neg p

let add p q =
  let lp = Array.length p and lq = Array.length q in
  let n = if lp > lq then lp else lq in
  trim (Array.init n (fun i -> Rat.add (coeff p i) (coeff q i)))

let sub p q =
  let lp = Array.length p and lq = Array.length q in
  let n = if lp > lq then lp else lq in
  trim (Array.init n (fun i -> Rat.sub (coeff p i) (coeff q i)))

(* [p] as integer numerators over their least common denominator:
   [p = (sum nums.(i) x^i) / den] with [den > 0]. Products, evaluation and
   sign tests run on these integers and normalise each result once. *)
let integer_form p =
  let lcm l d = if B.is_one d then l else if B.is_one l then d else B.mul l (B.div d (B.gcd l d)) in
  let den = Array.fold_left (fun l c -> lcm l (Rat.den c)) B.one p in
  let num c =
    let d = Rat.den c in
    if B.equal d den then Rat.num c else B.mul (Rat.num c) (B.div den d)
  in
  (Array.map num p, den)

let mul p q =
  let lp = Array.length p and lq = Array.length q in
  if lp = 0 || lq = 0 then zero
  else begin
    let np, dp = integer_form p and nq, dq = integer_form q in
    let r = Array.make (lp + lq - 1) B.zero in
    for i = 0 to lp - 1 do
      if not (B.is_zero np.(i)) then
        for j = 0 to lq - 1 do
          r.(i + j) <- B.add r.(i + j) (B.mul np.(i) nq.(j))
        done
    done;
    let den = B.mul dp dq in
    trim (Array.map (fun c -> Rat.make c den) r)
  end

let scale c p = if Rat.is_zero c then zero else Array.map (Rat.mul c) p

let pow p k =
  if k < 0 then invalid_arg "Poly.pow: negative exponent";
  let rec go acc p k =
    if k = 0 then acc
    else begin
      let acc = if k land 1 = 1 then mul acc p else acc in
      go acc (mul p p) (k lsr 1)
    end
  in
  go one p k

let divmod p q =
  if is_zero q then raise Division_by_zero;
  let dq = degree q and dp = degree p in
  if dp < dq then (zero, p)
  else begin
    let lead_inv = Rat.inv (leading q) in
    let rem = Array.copy p and quo = Array.make (dp - dq + 1) Rat.zero in
    for d = dp downto dq do
      if not (Rat.is_zero rem.(d)) then begin
        let c = Rat.mul rem.(d) lead_inv in
        quo.(d - dq) <- c;
        for j = 0 to dq - 1 do
          rem.(d - dq + j) <- Rat.sub rem.(d - dq + j) (Rat.mul c q.(j))
        done
      end
    done;
    (trim quo, trim (Array.sub rem 0 dq))
  end

let monic p = if is_zero p then p else scale (Rat.inv (leading p)) p

let rec gcd p q = if is_zero q then monic p else gcd q (snd (divmod p q))

let derivative p =
  if Array.length p <= 1 then zero
  else trim (Array.init (Array.length p - 1) (fun i -> Rat.mul_int p.(i + 1) (i + 1)))

let antiderivative p =
  if is_zero p then zero
  else begin
    let r = Array.make (Array.length p + 1) Rat.zero in
    for i = 0 to Array.length p - 1 do
      r.(i + 1) <- Rat.div_int p.(i) (i + 1)
    done;
    trim r
  end

(* Homogeneous Horner on the integer form: [(sum nums.(i) a^i b^(d-i), b^d)]
   for [d = degree]. *)
let horner nums a b =
  let d = Array.length nums - 1 in
  let acc = ref nums.(d) and bk = ref B.one in
  for i = d - 1 downto 0 do
    bk := B.mul !bk b;
    acc := B.add (B.mul !acc a) (B.mul nums.(i) !bk)
  done;
  (!acc, !bk)

let eval p v =
  match Array.length p with
  | 0 -> Rat.zero
  | 1 -> p.(0)
  | _ ->
    let nums, den = integer_form p in
    let acc, bd = horner nums (Rat.num v) (Rat.den v) in
    Rat.make acc (B.mul den bd)

let sign_at p =
  if is_zero p then fun _ _ -> 0
  else begin
    let nums, _ = integer_form p in
    fun n d -> B.sign (fst (horner nums n d))
  end

let eval_float p v =
  let acc = ref 0. in
  for i = Array.length p - 1 downto 0 do
    acc := (!acc *. v) +. Rat.to_float p.(i)
  done;
  !acc

let compose p q =
  let acc = ref zero in
  for i = Array.length p - 1 downto 0 do
    acc := add (mul !acc q) (constant p.(i))
  done;
  !acc

let compose_linear p a b = compose p (linear a b)

let to_string ?(var = "x") p =
  if is_zero p then "0"
  else begin
    let buf = Buffer.create 64 in
    let first = ref true in
    for i = Array.length p - 1 downto 0 do
      let c = p.(i) in
      if not (Rat.is_zero c) then begin
        let c_abs = Rat.abs c in
        if !first then begin
          if Rat.sign c < 0 then Buffer.add_string buf "-";
          first := false
        end
        else Buffer.add_string buf (if Rat.sign c < 0 then " - " else " + ");
        let show_coeff = i = 0 || not (Rat.equal c_abs Rat.one) in
        if show_coeff then Buffer.add_string buf (Rat.to_string c_abs);
        if i > 0 then begin
          if show_coeff then Buffer.add_string buf "*";
          Buffer.add_string buf var;
          if i > 1 then Buffer.add_string buf ("^" ^ string_of_int i)
        end
      end
    done;
    Buffer.contents buf
  end

let pp fmt p = Format.pp_print_string fmt (to_string p)
