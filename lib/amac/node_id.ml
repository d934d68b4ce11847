type t = Id of int | Anonymous

let unique_exn = function
  | Id i -> i
  | Anonymous ->
      invalid_arg "Node_id.unique_exn: anonymous node has no unique id"

let identity_assignment ~n ~kind =
  match kind with
  | `Anonymous -> Array.make n Anonymous
  | `Dense -> Array.init n (fun i -> Id i)
  | `Offset k -> Array.init n (fun i -> Id (k + i))
  | `Shuffled rng ->
      let ids = Array.init n (fun i -> i) in
      Rng.shuffle rng ids;
      Array.map (fun i -> Id i) ids
