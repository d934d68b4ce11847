type entry =
  | Broadcast_start of { time : int; node : int; ids : int; msg : string }
  | Delivered of {
      time : int;
      node : int;
      sender : int;
      msg : string;
      cause : int;
    }
  | Acked of { time : int; node : int }
  | Decided of { time : int; node : int; value : int }
  | Discarded of { time : int; node : int; msg : string }
  | Crashed of { time : int; node : int }
  | Recovered of { time : int; node : int; incarnation : int }
  | Link_dropped of { time : int; node : int; sender : int }
  | Stuttered of { time : int; node : int; actions : int }
  | Suppressed of { time : int; node : int; sender : int }
  | Substituted of { time : int; node : int; sender : int; msg : string }

let observer ~n ~pp_msg ~cause =
  let entries = ref [] in
  let log e = entries := e :: !entries in
  (* Each node's latest broadcast and its rendering. A delivery of that very
     message reuses the string, so a broadcast is rendered once, not once
     per receiver. A substituted payload is physically different and is
     rendered on its own. *)
  let sent = Array.make n None and text = Array.make n "" in
  let render sender msg =
    match sent.(sender) with
    | Some last when last == msg -> text.(sender)
    | Some _ | None -> pp_msg msg
  in
  let observe ~time : _ Obs.Event.t -> unit = function
    | Boot { node; incarnation } ->
        if incarnation > 0 then log (Recovered { time; node; incarnation })
    | Crash { node } -> log (Crashed { time; node })
    | Broadcast { node; ids; msg } ->
        let rendered = pp_msg msg in
        sent.(node) <- Some msg;
        text.(node) <- rendered;
        log (Broadcast_start { time; node; ids; msg = rendered })
    | Discard { node; msg } -> log (Discarded { time; node; msg = pp_msg msg })
    | Deliver { node; sender; msg; substituted } ->
        let msg = render sender msg in
        if substituted then log (Substituted { time; node; sender; msg });
        log (Delivered { time; node; sender; msg; cause = cause sender })
    | Link_drop { node; sender } -> log (Link_dropped { time; node; sender })
    | Suppress { node; sender } -> log (Suppressed { time; node; sender })
    | Ack { node } -> log (Acked { time; node })
    | Decide { node; value } -> log (Decided { time; node; value })
    | Stutter { node; actions } -> log (Stuttered { time; node; actions })
    | Step _ | Capped _ | Inject _ | Contention _ | Unreliable | Stale -> ()
  in
  (observe, fun () -> List.rev !entries)

let time_of = function
  | Broadcast_start { time; _ }
  | Delivered { time; _ }
  | Acked { time; _ }
  | Decided { time; _ }
  | Discarded { time; _ }
  | Crashed { time; _ }
  | Recovered { time; _ }
  | Link_dropped { time; _ }
  | Stuttered { time; _ }
  | Suppressed { time; _ }
  | Substituted { time; _ } ->
      time

let node_of = function
  | Broadcast_start { node; _ }
  | Delivered { node; _ }
  | Acked { node; _ }
  | Decided { node; _ }
  | Discarded { node; _ }
  | Crashed { node; _ }
  | Recovered { node; _ }
  | Link_dropped { node; _ }
  | Stuttered { node; _ }
  | Suppressed { node; _ }
  | Substituted { node; _ } ->
      node

let pp_entry fmt = function
  | Broadcast_start { time; node; ids; msg } ->
      Format.fprintf fmt "[t=%4d] node %d broadcast (%d ids): %s" time node ids
        msg
  | Delivered { time; node; sender; msg; cause } ->
      if cause >= 0 then
        Format.fprintf fmt "[t=%4d] node %d received from %d (cause #%d): %s"
          time node sender cause msg
      else
        Format.fprintf fmt "[t=%4d] node %d received from %d: %s" time node
          sender msg
  | Acked { time; node } ->
      Format.fprintf fmt "[t=%4d] node %d acked" time node
  | Decided { time; node; value } ->
      Format.fprintf fmt "[t=%4d] node %d DECIDED %d" time node value
  | Discarded { time; node; msg } ->
      Format.fprintf fmt "[t=%4d] node %d discarded (busy): %s" time node msg
  | Crashed { time; node } ->
      Format.fprintf fmt "[t=%4d] node %d CRASHED" time node
  | Recovered { time; node; incarnation } ->
      Format.fprintf fmt "[t=%4d] node %d RECOVERED (incarnation %d)" time node
        incarnation
  | Link_dropped { time; node; sender } ->
      Format.fprintf fmt "[t=%4d] node %d lost delivery from %d (link fault)"
        time node sender
  | Stuttered { time; node; actions } ->
      Format.fprintf fmt "[t=%4d] node %d stuttered (%d actions suppressed)"
        time node actions
  | Suppressed { time; node; sender } ->
      Format.fprintf fmt
        "[t=%4d] node %d delivery from %d suppressed (Byzantine silence)" time
        node sender
  | Substituted { time; node; sender; msg } ->
      Format.fprintf fmt
        "[t=%4d] node %d received FORGED payload from %d: %s" time node sender
        msg

let pp fmt entries =
  List.iter (fun e -> Format.fprintf fmt "%a@." pp_entry e) entries

(* Cell precedence for the timeline: higher wins when events collide. *)
let cell_rank = function
  | 'D' | 'X' | 'R' -> 5
  | 'B' -> 4
  | '~' | '!' | 's' | '#' | '*' -> 3
  | 'r' -> 2
  | 'a' -> 1
  | _ -> 0

let cell_of = function
  | Broadcast_start _ -> 'B'
  | Delivered _ -> 'r'
  | Acked _ -> 'a'
  | Decided _ -> 'D'
  | Discarded _ -> '~'
  | Crashed _ -> 'X'
  | Recovered _ -> 'R'
  | Link_dropped _ -> '!'
  | Stuttered _ -> 's'
  | Suppressed _ -> '#'
  | Substituted _ -> '*'

let timeline ~n entries =
  let by_time = Hashtbl.create 64 in
  List.iter
    (fun entry ->
      let time = time_of entry and node = node_of entry in
      let row =
        match Hashtbl.find_opt by_time time with
        | Some row -> row
        | None ->
            let row = Array.make n '.' in
            Hashtbl.replace by_time time row;
            row
      in
      let cell = cell_of entry in
      if node >= 0 && node < n && cell_rank cell > cell_rank row.(node) then
        row.(node) <- cell)
    entries;
  let times =
    Hashtbl.fold (fun time _ acc -> time :: acc) by_time []
    |> List.sort Int.compare
  in
  let buf = Buffer.create 256 in
  let header =
    String.concat ""
      (List.init n (fun i -> string_of_int (i mod 10)))
  in
  Buffer.add_string buf ("   t  " ^ header ^ "\n");
  List.iter
    (fun time ->
      let row = Hashtbl.find by_time time in
      Buffer.add_string buf
        (Printf.sprintf "%4d  %s\n" time
           (String.init n (fun i -> row.(i)))))
    times;
  Buffer.contents buf
