type t = { n : int; visible : int list array }

let n t = t.n
let sees t i = t.visible.(i)
let observes t ~viewer ~source = List.mem source t.visible.(viewer)

let make ~n f =
  if n < 1 then invalid_arg "Comm_pattern.make: n";
  let visible =
    Array.init n (fun i ->
      List.sort_uniq compare (List.filter (fun j -> j >= 0 && j < n && j <> i) (f i)))
  in
  { n; visible }

let none ~n = make ~n (fun _ -> [])
let broadcast ~n ~source = make ~n (fun i -> if i = source then [] else [ source ])
let chain ~n = make ~n (fun i -> List.init i Fun.id)
let full ~n = make ~n (fun i -> List.filter (fun j -> j <> i) (List.init n Fun.id))
let ring ~n = make ~n (fun i -> if n = 1 then [] else [ (i + n - 1) mod n ])

let k_hop ~n ~k =
  if k < 0 then invalid_arg "Comm_pattern.k_hop: negative k";
  make ~n (fun i ->
    List.concat_map
      (fun d -> [ (i + n - d) mod n; (i + d) mod n ])
      (List.init (min k (n / 2)) (fun d -> d + 1)))

let edges t =
  List.concat
    (List.init t.n (fun viewer -> List.map (fun source -> (source, viewer)) t.visible.(viewer)))

let message_count t = List.length (edges t)

let to_string t =
  let per_player =
    List.init t.n (fun i ->
      Printf.sprintf "%d<-{%s}" i (String.concat "," (List.map string_of_int t.visible.(i))))
  in
  Printf.sprintf "pattern(n=%d; %s)" t.n (String.concat " " per_player)
