module type S = sig
  type t

  val zero : t
  val one : t
  val of_int : int -> t
  val of_bigint : Bigint.t -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val pow : t -> int -> t
  val lt : t -> t -> bool
  val leq : t -> t -> bool
  val subset_power_sum : t array -> t -> int -> t
end

module Float = struct
  type t = float

  let zero = 0.
  let one = 1.
  let of_int = float_of_int
  let of_bigint = Bigint.to_float
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let pow = Combinat.int_pow
  let lt (a : float) b = a < b
  let leq (a : float) b = a <= b

  (* The Gray-code walk of Combinat.fold_subset_sums_gen as one loop over
     unboxed floats.  Step i flips bit ctz(i), so the subset's size has
     the parity of i; the power is Combinat.int_pow's square-and-multiply
     inlined.  Every float operation happens in the generic walk's order,
     so the sum is bit-identical to it. *)
  let subset_power_sum w t k =
    let n = Array.length w in
    if n > 62 then invalid_arg "Field.Float.subset_power_sum: too many elements";
    if k < 0 then invalid_arg "Field.Float.subset_power_sum: negative exponent";
    let acc = ref 0. and sum = ref 0. in
    for i = 0 to (1 lsl n) - 1 do
      if i > 0 then begin
        let bit = ref 0 in
        while (i lsr !bit) land 1 = 0 do
          incr bit
        done;
        let gray = i lxor (i lsr 1) in
        if (gray lsr !bit) land 1 = 1 then sum := !sum +. w.(!bit)
        else sum := !sum -. w.(!bit)
      end;
      if !sum < t then begin
        let term = ref 1. and x = ref (t -. !sum) and e = ref k in
        while !e > 0 do
          if !e land 1 = 1 then term := !term *. !x;
          x := !x *. !x;
          e := !e lsr 1
        done;
        acc := if i land 1 = 0 then !acc +. !term else !acc -. !term
      end
    done;
    !acc
end

module Q = struct
  type t = Rat.t

  let zero = Rat.zero
  let one = Rat.one
  let of_int = Rat.of_int
  let of_bigint = Rat.of_bigint
  let add = Rat.add
  let sub = Rat.sub
  let mul = Rat.mul
  let div = Rat.div
  let pow = Rat.pow
  let lt a b = Rat.compare a b < 0
  let leq a b = Rat.compare a b <= 0

  let subset_power_sum w t k =
    Combinat.fold_subset_sums_gen ~add:Rat.add ~sub:Rat.sub ~zero:Rat.zero w ~init:Rat.zero
      ~f:(fun acc ~size ~sum ->
        if Rat.compare sum t < 0 then begin
          let term = Rat.pow (Rat.sub t sum) k in
          if size land 1 = 0 then Rat.add acc term else Rat.sub acc term
        end
        else acc)
end
