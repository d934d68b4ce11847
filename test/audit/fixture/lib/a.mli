val used : unit -> unit

(* Called only through [B.Alias], a re-export in another unit. *)
val aliased : unit -> unit

(* Called only by the fixture's test; allowlisted. *)
val tested : unit -> unit

(* Called by nothing: the one export the audit must name. *)
val uncalled : unit -> unit
