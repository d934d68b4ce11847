type edge_kind = Local | Message | Ack_wait

type edge = {
  e_from : int;
  e_to : int;
  e_kind : edge_kind;
  e_latency : int;
  e_owner : int;
}

type path = {
  decide_id : int;
  node : int;
  value : int;
  decided_at : int;
  root_id : int;
  root_time : int;
  total : int;
  hops : int;
  ack_waits : int;
  edges : edge list;
  shares : (int * int) list;
}

let edge_of prov v =
  let c = Provenance.cause prov v in
  let kind =
    match Provenance.kind prov v with
    | Provenance.Deliver _ -> Message
    | Provenance.Ack -> Ack_wait
    | _ -> Local
  in
  (* MAC latency is the broadcaster's transmission; local steps are the
     handling node's own (zero-time) computation. *)
  let owner = Provenance.node prov (if kind = Local then v else c) in
  let e_latency = Provenance.time prov v - Provenance.time prov c in
  { e_from = c; e_to = v; e_kind = kind; e_latency; e_owner = owner }

let path_of prov (decide : Provenance.vertex) =
  let value =
    match decide.kind with Provenance.Decide { value } -> value | _ -> 0
  in
  let rec walk v acc =
    match Provenance.cause prov v with
    | -1 -> (v, acc)
    | c -> walk c (edge_of prov v :: acc)
  in
  let root, edges = walk decide.id [] in
  let count kind = List.length (List.filter (fun e -> e.e_kind = kind) edges) in
  let shares = Hashtbl.create 7 in
  List.iter
    (fun e ->
      if e.e_latency > 0 then
        Hashtbl.replace shares e.e_owner
          (e.e_latency
          + (try Hashtbl.find shares e.e_owner with Not_found -> 0)))
    edges;
  let shares =
    Hashtbl.fold (fun node ticks acc -> (node, ticks) :: acc) shares []
    |> List.sort compare
  in
  let root_time = Provenance.time prov root in
  {
    decide_id = decide.id;
    node = decide.node;
    value;
    decided_at = decide.time;
    root_id = root;
    root_time;
    total = decide.time - root_time;
    hops = count Message;
    ack_waits = count Ack_wait;
    edges;
    shares;
  }

let paths prov =
  let out = ref [] in
  for id = Provenance.length prov - 1 downto 0 do
    match Provenance.kind prov id with
    | Provenance.Decide _ ->
      out := path_of prov (Provenance.get prov id) :: !out
    | _ -> ()
  done;
  !out

let per_hop p =
  let mac = p.hops + p.ack_waits in
  if mac = 0 then 0. else float_of_int p.total /. float_of_int mac

let bottleneck p =
  if p.total = 0 then None
  else
    match p.shares with
    | [] -> None
    | shares ->
      let node, ticks =
        List.fold_left
          (fun (bn, bt) (n, t) -> if t > bt then (n, t) else (bn, bt))
          (List.hd shares) (List.tl shares)
      in
      Some (node, float_of_int ticks /. float_of_int p.total)

let kind_name = function
  | Local -> "local"
  | Message -> "message"
  | Ack_wait -> "ack_wait"

let edge_json e =
  Json.Obj
    [
      ("from", Json.Int e.e_from);
      ("to", Json.Int e.e_to);
      ("kind", Json.String (kind_name e.e_kind));
      ("latency", Json.Int e.e_latency);
      ("owner", Json.Int e.e_owner);
    ]

let path_json p =
  let bn, bf = match bottleneck p with Some (n, f) -> (n, f) | None -> (-1, 0.) in
  Json.Obj
    [
      ("decide_id", Json.Int p.decide_id);
      ("node", Json.Int p.node);
      ("value", Json.Int p.value);
      ("decided_at", Json.Int p.decided_at);
      ("root_id", Json.Int p.root_id);
      ("root_time", Json.Int p.root_time);
      ("total", Json.Int p.total);
      ("hops", Json.Int p.hops);
      ("ack_waits", Json.Int p.ack_waits);
      ("per_hop", Json.Float (per_hop p));
      ("bottleneck", Json.Int bn);
      ("bottleneck_frac", Json.Float bf);
      ( "shares",
        Json.List
          (List.map
             (fun (n, t) ->
               Json.Obj [ ("node", Json.Int n); ("ticks", Json.Int t) ])
             p.shares) );
      ("edges", Json.Seq (Seq.map edge_json (List.to_seq p.edges)));
    ]

let to_json ps =
  Json.Obj [ ("paths", Json.Seq (Seq.map path_json (List.to_seq ps))) ]

let render ps =
  let b = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf
           "decide node=%d value=%d at t=%d: %d ticks from root t=%d, %d \
            hops + %d ack-waits (%.2f ticks/MAC edge)\n"
           p.node p.value p.decided_at p.total p.root_time p.hops p.ack_waits
           (per_hop p));
      (match bottleneck p with
      | Some (n, f) ->
        Buffer.add_string b
          (Printf.sprintf "  bottleneck: node %d holds %.0f%% of the path\n" n
             (100. *. f))
      | None -> ());
      List.iter
        (fun (n, t) ->
          Buffer.add_string b (Printf.sprintf "    node %d: %d ticks\n" n t))
        p.shares)
    ps;
  Buffer.contents b
