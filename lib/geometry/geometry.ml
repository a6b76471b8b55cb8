module Make (F : Field.S) = struct
  let check_positive name a =
    Array.iter
      (fun v -> if not (F.lt F.zero v) then invalid_arg ("Geometry." ^ name ^ ": non-positive side"))
      a

  let simplex_volume sigma =
    check_positive "simplex_volume" sigma;
    let m = Array.length sigma in
    F.div (Array.fold_left F.mul F.one sigma) (F.of_bigint (Combinat.factorial m))

  let box_volume pi =
    check_positive "box_volume" pi;
    Array.fold_left F.mul F.one pi

  (* Proposition 2.2. The inclusion-exclusion runs over subsets I of the
     coordinates with Σ_{l∈I} π_l/σ_l < 1; the Gray-code walk keeps the
     subset sum incremental. *)
  let sigma_pi_volume ~sigma ~pi =
    let m = Array.length sigma in
    if Array.length pi <> m then invalid_arg "Geometry.sigma_pi_volume: dimension mismatch";
    check_positive "sigma_pi_volume" sigma;
    check_positive "sigma_pi_volume" pi;
    let ratios = Array.init m (fun l -> F.div pi.(l) sigma.(l)) in
    F.mul (simplex_volume sigma) (F.subset_power_sum ratios F.one m)
end

include Make (Field.Float)
module Q = Make (Field.Q)

let mem_simplex ~sigma x =
  let m = Array.length sigma in
  let acc = ref 0. in
  let ok = ref true in
  for l = 0 to m - 1 do
    if x.(l) < 0. then ok := false;
    acc := !acc +. (x.(l) /. sigma.(l))
  done;
  !ok && !acc <= 1.

let mem_box ~pi x =
  let ok = ref true in
  Array.iteri (fun l v -> if v < 0. || v > pi.(l) then ok := false) x;
  !ok

let mem_sigma_pi ~sigma ~pi x = mem_box ~pi x && mem_simplex ~sigma x

type halfspace = { normal : float array; offset : float }

let mem_halfspaces hs x =
  List.for_all
    (fun h ->
      let acc = ref 0. in
      Array.iteri (fun i a -> acc := !acc +. (a *. x.(i))) h.normal;
      !acc <= h.offset)
    hs

let halfspaces_of_sigma_pi ~sigma ~pi =
  let m = Array.length sigma in
  let unit_vec i s = Array.init m (fun j -> if j = i then s else 0.) in
  let simplex_face = { normal = Array.map (fun s -> 1. /. s) sigma; offset = 1. } in
  let box_faces = List.init m (fun i -> { normal = unit_vec i 1.; offset = pi.(i) }) in
  let nonneg = List.init m (fun i -> { normal = unit_vec i (-1.); offset = 0. }) in
  simplex_face :: (box_faces @ nonneg)

let mc_volume ~rand ~samples ~box mem =
  if samples <= 0 then invalid_arg "Geometry.mc_volume: samples";
  let m = Array.length box in
  let hits = ref 0 in
  let point = Array.make m 0. in
  for _ = 1 to samples do
    for l = 0 to m - 1 do
      point.(l) <- rand () *. box.(l)
    done;
    if mem point then incr hits
  done;
  box_volume box *. float_of_int !hits /. float_of_int samples
