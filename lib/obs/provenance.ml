type kind =
  | Boot of { incarnation : int }
  | Inject of { payload : int }
  | Broadcast
  | Deliver of { sender : int }
  | Ack
  | Decide of { value : int }

type vertex = { id : int; kind : kind; node : int; time : int; cause : int }

(* Vertex [id] is the four ints at [4 * id]: [node lsl 3 lor tag], its
   kind's own field (0 if none), its time and its cause. The tag order makes
   kind classes ranges: roots [<= 1], informational events [<= 2],
   deliveries and acks [2] and [3], broadcasts and decides [>= 4]. *)
type t = { mutable data : int array; mutable len : int }

let boot = 0 and inject = 1 and deliver = 2 and ack = 3 and broadcast = 4
and decide = 5

let create () = { data = Array.make 256 0; len = 0 }

let length t = t.len

let push t tag field ~node ~time ~cause =
  if cause < -1 || cause >= t.len then
    invalid_arg
      (Printf.sprintf "Provenance.record: cause %d not in [-1, %d)" cause
         t.len);
  let id = t.len in
  let i = 4 * id in
  if i = Array.length t.data then
    t.data <- Array.append t.data (Array.make i 0);
  let d = t.data in
  d.(i) <- (node lsl 3) lor tag;
  d.(i + 1) <- field;
  d.(i + 2) <- time;
  d.(i + 3) <- cause;
  t.len <- id + 1;
  id

let record t ~kind ~node ~time ~cause =
  match kind with
  | Boot { incarnation } -> push t boot incarnation ~node ~time ~cause
  | Inject { payload } -> push t inject payload ~node ~time ~cause
  | Deliver { sender } -> push t deliver sender ~node ~time ~cause
  | Ack -> push t ack 0 ~node ~time ~cause
  | Broadcast -> push t broadcast 0 ~node ~time ~cause
  | Decide { value } -> push t decide value ~node ~time ~cause

let at t id =
  if id < 0 || id >= t.len then
    invalid_arg (Printf.sprintf "Provenance.get: no vertex %d" id);
  4 * id

let node t id = t.data.(at t id) asr 3
let time t id = t.data.(at t id + 2)
let cause t id = t.data.(at t id + 3)

let kind t id =
  let field = t.data.(at t id + 1) in
  match t.data.(4 * id) land 7 with
  | 0 -> Boot { incarnation = field }
  | 1 -> Inject { payload = field }
  | 2 -> Deliver { sender = field }
  | 3 -> Ack
  | 4 -> Broadcast
  | _ -> Decide { value = field }

let get t id =
  { id; kind = kind t id; node = node t id; time = time t id;
    cause = cause t id }

let iter f t =
  for id = 0 to t.len - 1 do
    f (get t id)
  done

let check t =
  let bad = ref [] in
  let err fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  let d = t.data in
  for id = 0 to t.len - 1 do
    let tag = d.(4 * id) land 7 and time = d.((4 * id) + 2)
    and cause = d.((4 * id) + 3) in
    if cause >= id then err "vertex %d: cause %d not earlier" id cause;
    if cause < -1 then err "vertex %d: cause %d malformed" id cause;
    if cause = -1 then begin
      if tag > inject then err "vertex %d: non-root kind has no cause" id
    end
    else begin
      let ctag = d.(4 * cause) land 7 and ctime = d.((4 * cause) + 2) in
      if ctime > time then
        err "vertex %d at t=%d: cause %d is later (t=%d)" id time cause ctime;
      if tag <= inject then err "vertex %d: root kind has a cause" id
      else if tag <= ack && ctag <> broadcast then
        err "vertex %d: delivery/ack not caused by a broadcast" id
      else if tag > ack && ctag > deliver then
        err "vertex %d: broadcast/decide not caused by an informational \
             event" id
    end
  done;
  List.rev !bad

(* [last_info.(v)] is the vertex of [v]'s latest informational event (Boot,
   Inject or Deliver): what a Broadcast or Decide of [v] is attributed to.
   [current.(v)] is the vertex of [v]'s latest accepted Broadcast: the one a
   Deliver from [v] or an Ack at [v] belongs to (see the .mli). *)
let observer t ~n =
  let last_info = Array.make n (-1) and current = Array.make n (-1) in
  let observe ~time : _ Event.t -> unit = function
    | Boot { node; incarnation } ->
      last_info.(node) <- push t boot incarnation ~node ~time ~cause:(-1)
    | Inject { node; payload } ->
      last_info.(node) <- push t inject payload ~node ~time ~cause:(-1)
    | Broadcast { node; _ } ->
      current.(node) <- push t broadcast 0 ~node ~time ~cause:last_info.(node)
    | Deliver { node; sender; _ } ->
      last_info.(node) <-
        push t deliver sender ~node ~time ~cause:current.(sender)
    | Ack { node } ->
      ignore (push t ack 0 ~node ~time ~cause:current.(node))
    | Decide { node; value } ->
      ignore (push t decide value ~node ~time ~cause:last_info.(node))
    | Step _ | Capped _ | Crash _ | Discard _ | Contention _ | Unreliable
    | Stale | Link_drop _ | Suppress _ | Stutter _ ->
      ()
  in
  (observe, fun node -> current.(node))

(* One vertex's object: [id], [kind], the kind's own field, then
   [node], [t], [cause]. *)
let vertex_json d id =
  let i = 4 * id in
  let node = Json.Int (d.(i) asr 3) and time = Json.Int d.(i + 2) in
  let rest = [ ("node", node); ("t", time); ("cause", Json.Int d.(i + 3)) ] in
  let field = d.(i + 1) in
  let fields =
    match d.(i) land 7 with
    | 0 -> ("kind", Json.String "boot") :: ("inc", Json.Int field) :: rest
    | 1 -> ("kind", Json.String "inject") :: ("payload", Json.Int field) :: rest
    | 2 -> ("kind", Json.String "deliver") :: ("from", Json.Int field) :: rest
    | 3 -> ("kind", Json.String "ack") :: rest
    | 4 -> ("kind", Json.String "broadcast") :: rest
    | _ -> ("kind", Json.String "decide") :: ("value", Json.Int field) :: rest
  in
  Json.Obj (("id", Json.Int id) :: fields)

(* [data] and [len] are read once: recording later only writes past [len]
   (or into a grown copy), so the export is the DAG as of this call. *)
let to_json t =
  let data = t.data and len = t.len in
  let rec from id () =
    if id = len then Seq.Nil else Seq.Cons (vertex_json data id, from (id + 1))
  in
  Json.Obj [ ("vertices", Json.Seq (from 0)) ]
