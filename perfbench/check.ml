(* Output checks.  A serve answer counts only when it is a 200
   [ddm.eval/v1] document whose [key] is the cache key of the body sent and
   whose [p] is bit-equal to an in-process solve of that body; the paper
   canaries are checked against the paper's own values on top. *)

type expected = { key : string; p : float }

(* The reference: what the program answers for [body] when asked directly,
   with no server, queue or cache in between. *)
let expected_of_body body =
  match Solver.parse body with
  | Error e -> Error ("request rejected: " ^ e)
  | Ok r -> (
    match Solver.solve ~deadline_mono_s:infinity r with
    | a -> Ok { key = Solver.cache_key r; p = a.Solver.p }
    | exception e -> Error ("direct solve raised " ^ Printexc.to_string e))

(* A response reduced to what the check needs: a few words, so responses
   to keys sent once can be reduced as they arrive instead of kept.
   [status] is the HTTP status, or one of the negative codes below when a
   200's body is not a [ddm.eval/v1] document with a key and a p. *)
type reply = { status : int; key_hash : int; p : float }

let not_json = -1
let wrong_schema = -2
let no_key = -3
let no_p = -4
let key_hash key = Int64.to_int (String.get_int64_le (Digest.string key) 0)

let reply ~status ~body =
  let bad code = { status = code; key_hash = 0; p = nan } in
  if status <> 200 then bad status
  else
    match Jsonx.parse body with
    | Error _ -> bad not_json
    | Ok j -> (
      match (Jsonx.string_member "schema" j, Jsonx.string_member "key" j, Jsonx.float_member "p" j) with
      | Some "ddm.eval/v1", Some k, Some p -> { status; key_hash = key_hash k; p }
      | Some "ddm.eval/v1", None, _ -> bad no_key
      | Some "ddm.eval/v1", _, None -> bad no_p
      | _ -> bad wrong_schema)

let verify (e : expected) r =
  if r.status = not_json then Error "body is not JSON"
  else if r.status = wrong_schema then Error "schema is not ddm.eval/v1"
  else if r.status = no_key then Error "no key"
  else if r.status = no_p then Error "no p"
  else if r.status <> 200 then Error (Printf.sprintf "status %d" r.status)
  else if r.key_hash <> key_hash e.key then Error (Printf.sprintf "key is not %S" e.key)
  else if not (Int64.equal (Int64.bits_of_float r.p) (Int64.bits_of_float e.p)) then
    Error (Printf.sprintf "p %.17g, want %.17g" r.p e.p)
  else Ok ()

(* §5.2.1: beta* = 1 - sqrt(1/7); §5.2.2: beta* ~ 0.678; Thm 4.1/4.3:
   the uniform oblivious rule at n = 4, delta = 4/3 wins with 559/1296.
   [None] for a body that is not a canary. *)
let canary body ~response =
  let near what ~want ~tol =
    match Option.bind (Result.to_option (Jsonx.parse response)) (Jsonx.float_member what) with
    | Some v when Float.abs (v -. want) <= tol -> Ok ()
    | Some v -> Error (Printf.sprintf "%s = %.17g, want %.17g within %g" what v want tol)
    | None -> Error (what ^ " missing")
  in
  if body = Gen.canary_opt3 then Some (near "beta_star" ~want:(1. -. sqrt (1. /. 7.)) ~tol:1e-9)
  else if body = Gen.canary_opt4 then Some (near "beta_star" ~want:0.678 ~tol:1e-3)
  else if body = Gen.canary_obl4 then Some (near "p" ~want:(559. /. 1296.) ~tol:1e-12)
  else None
