(* Run metadata read from the kernel's own interfaces, so a noisy run can
   be identified from its output rather than guessed at. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let lines path = match read_file path with Some s -> String.split_on_char '\n' s | None -> []

let words l = List.filter (( <> ) "") (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) l))

(* VmHWM: the process's resident-set high-water mark. *)
let peak_rss_mb () =
  List.find_map
    (fun l ->
      match words l with
      | [ "VmHWM:"; kb; "kB" ] -> Option.map (fun k -> k /. 1024.) (float_of_string_opt kb)
      | _ -> None)
    (lines "/proc/self/status")

type cpu = { steal : float; total : float }

(* the aggregate "cpu" line: user nice system idle iowait irq softirq steal ... *)
let cpu () =
  match lines "/proc/stat" with
  | l :: _ -> (
    match words l with
    | "cpu" :: fields ->
      let v = List.filter_map float_of_string_opt fields in
      let first k = List.filteri (fun i _ -> i < k) v in
      Some { steal = (match List.nth_opt v 7 with Some s -> s | None -> 0.);
             total = List.fold_left ( +. ) 0. (first 8) }
    | _ -> None)
  | [] -> None

let steal_share a b =
  match (a, b) with
  | Some a, Some b when b.total > a.total -> (b.steal -. a.steal) /. (b.total -. a.total)
  | _ -> 0.

(* Filesystem type of the mount holding [path] (longest mount-point
   prefix of its absolute form). *)
let fs_type path =
  let abs = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path in
  let under mnt =
    mnt = "/" || abs = mnt
    || (String.length abs > String.length mnt
       && String.sub abs 0 (String.length mnt) = mnt
       && abs.[String.length mnt] = '/')
  in
  List.fold_left
    (fun (best, ty) l ->
      match words l with
      | _ :: mnt :: t :: _ when under mnt && String.length mnt > String.length best -> (mnt, t)
      | _ -> (best, ty))
    ("", "unknown") (lines "/proc/mounts")
  |> snd

(* Only a repository rooted right here counts: a checkout without .git
   reports no revision rather than a parent directory's. *)
let git_rev () =
  if Sys.file_exists ".git" then Option.value (Ledger.git_rev_at ~dir:".") ~default:"unknown"
  else "none"

let nproc () = Domain.recommended_domain_count ()

(* The CPUs the process may run on, as the kernel lists them ("0-1"). *)
let cpus_allowed () =
  List.find_map
    (fun l -> match words l with [ "Cpus_allowed_list:"; v ] -> Some v | _ -> None)
    (lines "/proc/self/status")
  |> Option.value ~default:"unknown"
