(* [msg_arg] is shared by the span and its deliveries; [deliver] is the
   deliveries' args for [cause], built at the first one ([[]] before). *)
type open_span = {
  started : int;
  ids : int;
  msg : string;
  msg_arg : string * Obs.Json.t;
  mutable cause : int;
  mutable deliver : (string * Obs.Json.t) list;
}

let complete ~node ~start ~until ~ids ~msg ~acked : Obs.Span.event =
  Obs.Span.Complete
    {
      name = "broadcast";
      cat = "mac";
      start_time = start;
      duration = until - start;
      node;
      args =
        (msg :: ("ids", Obs.Json.Int ids)
        :: (if acked then [] else [ ("unacked", Obs.Json.Bool true) ]));
    }

let delivery ~sender msg ~cause =
  ("from", Obs.Json.Int sender) :: msg
  :: (if cause >= 0 then [ ("cause", Obs.Json.Int cause) ] else [])

let instant ~name ~cat ~time ~node args : Obs.Span.event =
  Obs.Span.Instant { name; cat; time; node; args }

let spans entries =
  let open_spans : (int, open_span) Hashtbl.t = Hashtbl.create 16 in
  let out = ref [] in
  let emit e = out := e :: !out in
  let end_time =
    List.fold_left (fun acc e -> max acc (Trace.time_of e)) 0 entries
  in
  let close_open ~node ~until ~acked =
    match Hashtbl.find_opt open_spans node with
    | None -> ()
    | Some { started; ids; msg_arg = msg; _ } ->
        Hashtbl.remove open_spans node;
        emit (complete ~node ~start:started ~until ~ids ~msg ~acked)
  in
  (* Every delivery of one broadcast (its rendering is shared, see
     {!Trace.observer}) with one cause gets the same args list. *)
  let deliver_args ~sender ~msg ~cause =
    match Hashtbl.find open_spans sender with
    | { msg = m; cause = c; deliver = _ :: _ as args; _ }
      when m == msg && c = cause ->
        args
    | span when span.msg == msg ->
        span.deliver <- delivery ~sender span.msg_arg ~cause;
        span.cause <- cause;
        span.deliver
    | _ | (exception Not_found) ->
        delivery ~sender ("msg", Obs.Json.String msg) ~cause
  in
  List.iter
    (fun entry ->
      match entry with
      | Trace.Broadcast_start { time; node; ids; msg } ->
          (* A still-open span here means the previous broadcast's ack was
             cancelled (crash + recovery): close it as lost work. *)
          close_open ~node ~until:time ~acked:false;
          let msg_arg = ("msg", Obs.Json.String msg) in
          Hashtbl.replace open_spans node
            { started = time; ids; msg; msg_arg; cause = -1; deliver = [] }
      | Trace.Acked { time; node } -> (
          match Hashtbl.find_opt open_spans node with
          | Some _ -> close_open ~node ~until:time ~acked:true
          | None ->
              (* Hand-built or truncated trace: keep the ack visible. *)
              emit (instant ~name:"ack" ~cat:"mac" ~time ~node []))
      | Trace.Delivered { time; node; sender; msg; cause } ->
          emit
            (instant ~name:"deliver" ~cat:"mac" ~time ~node
               (deliver_args ~sender ~msg ~cause))
      | Trace.Decided { time; node; value } ->
          emit
            (instant ~name:"decide" ~cat:"consensus" ~time ~node
               [ ("value", Obs.Json.Int value) ])
      | Trace.Discarded { time; node; msg } ->
          emit
            (instant ~name:"discard" ~cat:"mac" ~time ~node
               [ ("msg", Obs.Json.String msg) ])
      | Trace.Crashed { time; node } ->
          close_open ~node ~until:time ~acked:false;
          emit (instant ~name:"crash" ~cat:"fault" ~time ~node [])
      | Trace.Recovered { time; node; incarnation } ->
          emit
            (instant ~name:"recover" ~cat:"fault" ~time ~node
               [ ("incarnation", Obs.Json.Int incarnation) ])
      | Trace.Link_dropped { time; node; sender } ->
          emit
            (instant ~name:"link_drop" ~cat:"fault" ~time ~node
               [ ("from", Obs.Json.Int sender) ])
      | Trace.Stuttered { time; node; actions } ->
          emit
            (instant ~name:"stutter" ~cat:"fault" ~time ~node
               [ ("actions", Obs.Json.Int actions) ])
      | Trace.Suppressed { time; node; sender } ->
          emit
            (instant ~name:"byz_suppress" ~cat:"adversary" ~time ~node
               [ ("from", Obs.Json.Int sender) ])
      | Trace.Substituted { time; node; sender; msg } ->
          emit
            (instant ~name:"byz_substitute" ~cat:"adversary" ~time ~node
               [ ("from", Obs.Json.Int sender); ("msg", Obs.Json.String msg) ]))
    entries;
  (* Broadcasts still in flight when the run stopped. *)
  Hashtbl.fold (fun node _ acc -> node :: acc) open_spans []
  |> List.sort Int.compare
  |> List.iter (fun node -> close_open ~node ~until:end_time ~acked:false);
  List.rev !out
