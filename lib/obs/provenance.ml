type kind =
  | Boot of { incarnation : int }
  | Inject of { payload : int }
  | Broadcast
  | Deliver of { sender : int }
  | Ack
  | Decide of { value : int }

type vertex = { id : int; kind : kind; node : int; time : int; cause : int }

type t = { mutable data : vertex array; mutable len : int }

let dummy = { id = -1; kind = Broadcast; node = -1; time = -1; cause = -1 }

let create () = { data = Array.make 64 dummy; len = 0 }

let length t = t.len

let record t ~kind ~node ~time ~cause =
  if cause < -1 || cause >= t.len then
    invalid_arg
      (Printf.sprintf "Provenance.record: cause %d not in [-1, %d)" cause
         t.len);
  let id = t.len in
  if id = Array.length t.data then begin
    let grown = Array.make (2 * id) dummy in
    Array.blit t.data 0 grown 0 id;
    t.data <- grown
  end;
  t.data.(id) <- { id; kind; node; time; cause };
  t.len <- id + 1;
  id

let get t id =
  if id < 0 || id >= t.len then
    invalid_arg (Printf.sprintf "Provenance.get: no vertex %d" id);
  t.data.(id)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let check t =
  let bad = ref [] in
  let err fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  iter
    (fun v ->
      if v.cause >= v.id then err "vertex %d: cause %d not earlier" v.id v.cause;
      if v.cause < -1 then err "vertex %d: cause %d malformed" v.id v.cause;
      if v.cause = -1 then begin
        match v.kind with
        | Boot _ | Inject _ -> ()
        | Broadcast | Deliver _ | Ack | Decide _ ->
          err "vertex %d: non-root kind has no cause" v.id
      end
      else begin
        let c = t.data.(v.cause) in
        if c.time > v.time then
          err "vertex %d at t=%d: cause %d is later (t=%d)" v.id v.time c.id
            c.time;
        match v.kind with
        | Deliver _ | Ack -> (
          match c.kind with
          | Broadcast -> ()
          | _ -> err "vertex %d: delivery/ack not caused by a broadcast" v.id)
        | Boot _ | Inject _ ->
          err "vertex %d: root kind has a cause" v.id
        | Broadcast | Decide _ -> (
          match c.kind with
          | Boot _ | Inject _ | Deliver _ -> ()
          | Broadcast | Ack | Decide _ ->
            err "vertex %d: broadcast/decide not caused by an informational \
                 event" v.id)
      end)
    t;
  List.rev !bad

(* [last_info.(v)] is the vertex of [v]'s latest informational event (Boot,
   Inject or Deliver): what a Broadcast or Decide of [v] is attributed to.
   [current.(v)] is the vertex of [v]'s latest accepted Broadcast: the one a
   Deliver from [v] or an Ack at [v] belongs to (see the .mli). *)
let observer t ~n =
  let last_info = Array.make n (-1) and current = Array.make n (-1) in
  let observe ~time : _ Event.t -> unit = function
    | Boot { node; incarnation } ->
      last_info.(node) <-
        record t ~kind:(Boot { incarnation }) ~node ~time ~cause:(-1)
    | Inject { node; payload } ->
      last_info.(node) <-
        record t ~kind:(Inject { payload }) ~node ~time ~cause:(-1)
    | Broadcast { node; _ } ->
      current.(node) <-
        record t ~kind:Broadcast ~node ~time ~cause:last_info.(node)
    | Deliver { node; sender; _ } ->
      last_info.(node) <-
        record t ~kind:(Deliver { sender }) ~node ~time
          ~cause:current.(sender)
    | Ack { node } ->
      ignore (record t ~kind:Ack ~node ~time ~cause:current.(node))
    | Decide { node; value } ->
      ignore
        (record t ~kind:(Decide { value }) ~node ~time
           ~cause:last_info.(node))
    | Step _ | Capped _ | Crash _ | Discard _ | Contention _ | Unreliable
    | Stale | Link_drop _ | Suppress _ | Stutter _ ->
      ()
  in
  (observe, fun node -> current.(node))

(* One vertex's object: [id], [kind], the kind's own field, then
   [node], [t], [cause]. *)
let vertex_json v =
  let rest =
    [
      ("node", Json.Int v.node);
      ("t", Json.Int v.time);
      ("cause", Json.Int v.cause);
    ]
  in
  let fields =
    match v.kind with
    | Boot { incarnation } ->
      ("kind", Json.String "boot") :: ("inc", Json.Int incarnation) :: rest
    | Inject { payload } ->
      ("kind", Json.String "inject") :: ("payload", Json.Int payload) :: rest
    | Broadcast -> ("kind", Json.String "broadcast") :: rest
    | Deliver { sender } ->
      ("kind", Json.String "deliver") :: ("from", Json.Int sender) :: rest
    | Ack -> ("kind", Json.String "ack") :: rest
    | Decide { value } ->
      ("kind", Json.String "decide") :: ("value", Json.Int value) :: rest
  in
  Json.Obj (("id", Json.Int v.id) :: fields)

(* [data] and [len] are read once: recording later only writes past [len]
   (or into a grown copy), so the export is the DAG as of this call. *)
let to_json t =
  let data = t.data and len = t.len in
  let rec from i () =
    if i = len then Seq.Nil else Seq.Cons (vertex_json data.(i), from (i + 1))
  in
  Json.Obj [ ("vertices", Json.Seq (from 0)) ]
