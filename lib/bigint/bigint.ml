(* Arbitrary-precision signed integers in sign-magnitude form.

   Magnitudes are little-endian [int array]s of limbs in base 2^30. The base
   is chosen so that a limb product plus accumulated carries stays below
   2^62, which fits OCaml's 63-bit native int on 64-bit platforms. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

(* ------------------------------------------------------------------ *)
(* Magnitude helpers (unsigned little-endian limb arrays, no leading
   zeros).                                                             *)
(* ------------------------------------------------------------------ *)

let mag_zero = [||]

(* Drop leading (high-order) zero limbs. *)
let trim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r.(lr - 1) <- !carry;
  trim r

(* Requires a >= b. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  trim r

let mag_mul_schoolbook a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then mag_zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land base_mask;
          carry := s lsr base_bits
        done;
        (* Propagate the final carry; it can exceed one limb only by a tiny
           amount, but propagate fully for safety. *)
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land base_mask;
          carry := s lsr base_bits;
          incr k
        done
      end
    done;
    trim r
  end

let karatsuba_threshold = 32

(* Split a magnitude at limb index k into (low, high). *)
let mag_split a k =
  let la = Array.length a in
  if la <= k then (a, mag_zero) else (trim (Array.sub a 0 k), Array.sub a k (la - k))

let mag_shift_limbs a k =
  if Array.length a = 0 then mag_zero
  else begin
    let r = Array.make (Array.length a + k) 0 in
    Array.blit a 0 r k (Array.length a);
    r
  end

let rec mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la < karatsuba_threshold || lb < karatsuba_threshold then mag_mul_schoolbook a b
  else begin
    let k = (if la > lb then la else lb) / 2 in
    let a0, a1 = mag_split a k and b0, b1 = mag_split b k in
    let z0 = mag_mul a0 b0 in
    let z2 = mag_mul a1 b1 in
    let z1 = mag_sub (mag_mul (mag_add a0 a1) (mag_add b0 b1)) (mag_add z0 z2) in
    mag_add z0 (mag_add (mag_shift_limbs z1 k) (mag_shift_limbs z2 (2 * k)))
  end

(* Divide by a single limb 0 < d < base. Returns (quotient, remainder). *)
let mag_divmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (trim q, !rem)

let bits_of_limb x =
  let rec go x acc = if x = 0 then acc else go (x lsr 1) (acc + 1) in
  go x 0

let mag_bit_length a =
  let la = Array.length a in
  if la = 0 then 0 else ((la - 1) * base_bits) + bits_of_limb a.(la - 1)

let mag_shift_left_bits a s =
  if s = 0 || Array.length a = 0 then Array.copy a
  else begin
    let limb_shift = s / base_bits and bit_shift = s mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    if bit_shift = 0 then Array.blit a 0 r limb_shift la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bit_shift) lor !carry in
        r.(i + limb_shift) <- v land base_mask;
        carry := v lsr base_bits
      done;
      r.(la + limb_shift) <- !carry
    end;
    trim r
  end

let mag_shift_right_bits a s =
  if s = 0 then Array.copy a
  else begin
    let limb_shift = s / base_bits and bit_shift = s mod base_bits in
    let la = Array.length a in
    if limb_shift >= la then mag_zero
    else begin
      let lr = la - limb_shift in
      let r = Array.make lr 0 in
      if bit_shift = 0 then Array.blit a limb_shift r 0 lr
      else
        for i = 0 to lr - 1 do
          let lo = a.(i + limb_shift) lsr bit_shift in
          let hi =
            if i + limb_shift + 1 < la then (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land base_mask
            else 0
          in
          r.(i) <- lo lor hi
        done;
      trim r
    end
  end

(* Knuth algorithm D. Requires Array.length v >= 2 and u >= v element
   counts handled by caller; works for any u. *)
let mag_divmod_knuth u v =
  let n = Array.length v in
  let m = Array.length u in
  assert (n >= 2);
  if mag_compare u v < 0 then (mag_zero, Array.copy u)
  else begin
    (* Normalize so the top limb of v has its high bit set. *)
    let s = base_bits - bits_of_limb v.(n - 1) in
    let vn = mag_shift_left_bits v s in
    let un_t = mag_shift_left_bits u s in
    (* un needs m+1 limbs of working space. *)
    let un = Array.make (m + 1) 0 in
    Array.blit un_t 0 un 0 (Array.length un_t);
    let q = Array.make (m - n + 1) 0 in
    for j = m - n downto 0 do
      let num = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
      let qhat = ref (num / vn.(n - 1)) and rhat = ref (num mod vn.(n - 1)) in
      let continue_adjust = ref true in
      while
        !continue_adjust
        && (!qhat >= base || !qhat * vn.(n - 2) > (!rhat lsl base_bits) lor un.(j + n - 2))
      do
        decr qhat;
        rhat := !rhat + vn.(n - 1);
        if !rhat >= base then continue_adjust := false
      done;
      (* Multiply and subtract qhat * vn from un[j .. j+n]. *)
      let borrow = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * vn.(i)) + !borrow in
        borrow := p lsr base_bits;
        let sub = un.(i + j) - (p land base_mask) in
        if sub < 0 then begin
          un.(i + j) <- sub + base;
          incr borrow
        end
        else un.(i + j) <- sub
      done;
      let sub = un.(j + n) - !borrow in
      if sub < 0 then begin
        (* qhat was one too large: add vn back. *)
        un.(j + n) <- sub + base;
        decr qhat;
        let carry = ref 0 in
        for i = 0 to n - 1 do
          let t = un.(i + j) + vn.(i) + !carry in
          un.(i + j) <- t land base_mask;
          carry := t lsr base_bits
        done;
        un.(j + n) <- (un.(j + n) + !carry) land base_mask
      end
      else un.(j + n) <- sub;
      q.(j) <- !qhat
    done;
    let r = mag_shift_right_bits (trim (Array.sub un 0 n)) s in
    (trim q, r)
  end

let mag_divmod u v =
  match Array.length v with
  | 0 -> raise Division_by_zero
  | 1 ->
    let q, r = mag_divmod_small u v.(0) in
    (q, if r = 0 then mag_zero else [| r |])
  | _ -> mag_divmod_knuth u v

(* ------------------------------------------------------------------ *)
(* Signed interface.                                                   *)
(* ------------------------------------------------------------------ *)

let allocs =
  Metrics.counter ~help:"Bigint values constructed (arithmetic results; constants excluded)"
    "ddm_bigint_allocs_total"

let mk sign mag =
  Metrics.incr allocs;
  if Array.length mag = 0 then { sign = 0; mag = mag_zero } else { sign; mag }
let zero = { sign = 0; mag = mag_zero }
let of_small_pos v = if v = 0 then zero else { sign = 1; mag = trim [| v land base_mask; (v lsr base_bits) land base_mask; v lsr (2 * base_bits) |] }

let of_int v =
  if v = 0 then zero
  else if v > 0 then of_small_pos v
  else if v = min_int then
    (* |min_int| = 2^62 does not fit in a positive int; build it directly. *)
    { sign = -1; mag = [| 0; 0; 4 |] }
  else { (of_small_pos (-v)) with sign = -1 }

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let sign t = t.sign
let is_zero t = t.sign = 0
let is_one t = t.sign = 1 && Array.length t.mag = 1 && t.mag.(0) = 1
let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then { t with sign = 1 } else t

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash t = Hashtbl.hash (t.sign, t.mag)

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then mk a.sign (mag_add a.mag b.mag)
  else begin
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then mk a.sign (mag_sub a.mag b.mag)
    else mk b.sign (mag_sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ t = add t one
let pred t = sub t one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero else mk (a.sign * b.sign) (mag_mul a.mag b.mag)

let mul_int a v = mul a (of_int v)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero
  else begin
    let qm, rm = mag_divmod a.mag b.mag in
    let q = mk (a.sign * b.sign) qm in
    let r = mk a.sign rm in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (pred q, add r b)
  else (succ q, sub r b)

let pow x k =
  if k < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc x k =
    if k = 0 then acc
    else begin
      let acc = if k land 1 = 1 then mul acc x else acc in
      go acc (mul x x) (k lsr 1)
    end
  in
  go one x k

let rec gcd_mag a b = if Array.length b = 0 then a else gcd_mag b (snd (mag_divmod a b))

let gcd a b = mk 1 (gcd_mag (abs a).mag (abs b).mag)

let shift_left t k =
  if k < 0 then invalid_arg "Bigint.shift_left";
  if t.sign = 0 then zero else mk t.sign (mag_shift_left_bits t.mag k)

let shift_right t k =
  if k < 0 then invalid_arg "Bigint.shift_right";
  if t.sign = 0 then zero else mk t.sign (mag_shift_right_bits t.mag k)

let bit_length t = mag_bit_length t.mag

let to_int_opt t =
  if bit_length t <= 62 then begin
    let v = Array.fold_right (fun limb acc -> (acc lsl base_bits) lor limb) t.mag 0 in
    if v >= 0 then Some (t.sign * v)
    else if t.sign < 0 && t = of_int Stdlib.min_int then Some Stdlib.min_int
    else None
  end
  else if t.sign < 0 && equal t (of_int Stdlib.min_int) then Some Stdlib.min_int
  else None

let to_int_exn t =
  match to_int_opt t with Some v -> v | None -> failwith "Bigint.to_int_exn: overflow"

let to_float t =
  let nb = bit_length t in
  if nb <= 62 then float_of_int (to_int_exn t)
  else begin
    (* Take the top 62 bits and scale. *)
    let top = shift_right (abs t) (nb - 62) in
    let f = float_of_int (to_int_exn top) in
    let v = ldexp f (nb - 62) in
    if t.sign < 0 then -.v else v
  end

let chunk_pow = 1_000_000_000 (* 10^9 < 2^30 *)

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks mag acc =
      if Array.length mag = 0 then acc
      else begin
        let q, r = mag_divmod_small mag chunk_pow in
        chunks q (r :: acc)
      end
    in
    (match chunks t.mag [] with
    | [] -> assert false
    | first :: rest ->
      if t.sign < 0 then Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let s = String.concat "" (String.split_on_char '_' s) in
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty";
  let neg_sign, start =
    match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let i = ref start in
  while !i < len do
    let stop = Stdlib.min len (!i + 9) in
    let chunk = String.sub s !i (stop - !i) in
    String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit") chunk;
    let v = int_of_string chunk in
    let scale = int_of_float (10. ** float_of_int (stop - !i)) in
    acc := add (mul !acc (of_int scale)) (of_int v);
    i := stop
  done;
  if neg_sign then neg !acc else !acc

let pp fmt t = Format.pp_print_string fmt (to_string t)
