type body =
  | Est of { round : int; value : int }
  | Aux of { round : int; value : int }

type msg = { sender : int; body : body }

type state = {
  me : int;
  n : int;
  f : int;
  seed : int;
  mutable round : int;
  mutable est : int;
  (* (round, value, sender) — distinct-sender support for EST(round, value);
     dedup by sender is the Byzantine firewall: an equivocator still only
     counts once per (round, value). *)
  est_from : (int * int * int, unit) Hashtbl.t;
  echoed : (int * int, unit) Hashtbl.t;  (* (round, value) we broadcast *)
  bin : (int * int, unit) Hashtbl.t;  (* (round, value) BV-accepted *)
  aux_from : (int * int, int) Hashtbl.t;  (* (round, sender) -> value *)
  aux_sent : (int, unit) Hashtbl.t;  (* rounds whose AUX we broadcast *)
  mutable outbox : body list;
  mutable sending : bool;
  mutable decision : int option;
  mutable announced : bool;
}

(* Deterministic common coin: every node computes the same bit from (seed,
   round) alone. Against our oblivious schedulers (fixed before the run)
   this behaves like a perfect shared coin; a coin-aware adaptive adversary
   could stall termination, never safety. *)
let coin ~seed round = Hashtbl.hash (0x5bc1, seed, round) land 1

let send st body = st.outbox <- st.outbox @ [ body ]

let maybe_broadcast st =
  match st.outbox with
  | body :: rest when not st.sending ->
      st.outbox <- rest;
      st.sending <- true;
      [ Amac.Algorithm.Broadcast { sender = st.me; body } ]
  | _ -> []

let support st round value =
  Hashtbl.fold
    (fun (r, v, _) () acc -> if r = round && v = value then acc + 1 else acc)
    st.est_from 0

let echo st round value =
  if not (Hashtbl.mem st.echoed (round, value)) then begin
    Hashtbl.replace st.echoed (round, value) ();
    Hashtbl.replace st.est_from (round, value, st.me) ();
    send st (Est { round; value })
  end

let send_aux st round value =
  if not (Hashtbl.mem st.aux_sent round) then begin
    Hashtbl.replace st.aux_sent round ();
    Hashtbl.replace st.aux_from (round, st.me) value;
    send st (Aux { round; value })
  end

(* One pass of the round state machine; loops because buffered future-round
   messages can satisfy several transitions at once. *)
let rec advance st =
  let r = st.round in
  echo st r st.est;
  List.iter
    (fun v ->
      let s = support st r v in
      (* BV-broadcast: f+1 distinct supporters means at least one honest
         node proposed v, so echoing cannot launder a Byzantine-only
         value; 2f+1 means a majority of honest nodes back it. *)
      if s >= st.f + 1 then echo st r v;
      if s >= (2 * st.f) + 1 then Hashtbl.replace st.bin (r, v) ())
    [ 0; 1 ];
  let binned v = Hashtbl.mem st.bin (r, v) in
  if binned 0 then send_aux st r 0 else if binned 1 then send_aux st r 1;
  (* Decision step: n - f distinct AUX values all of which are BV-accepted.
     Two such quorums share >= n - 2f >= f + 1 senders — an honest one —
     which is what makes decisions of different values impossible. *)
  let compatible =
    Hashtbl.fold
      (fun (r', _) v acc ->
        if r' = r && binned v then v :: acc else acc)
      st.aux_from []
  in
  (* A decided singleton must stop here: with n = 1 every quorum is
     self-satisfied and round-advancing (which exists to help laggards —
     of which there are none) would recurse forever. *)
  if List.length compatible >= st.n - st.f && not (st.decision <> None && st.n = 1)
  then begin
    let values = List.sort_uniq Int.compare compatible in
    let c = coin ~seed:st.seed r in
    (match values with
    | [ v ] ->
        st.est <- v;
        if v = c && st.decision = None then st.decision <- Some v
    | _ -> st.est <- c);
    st.round <- r + 1;
    (* Deciders keep playing every subsequent round: their ESTs and AUXs
       are what let laggards assemble quorums once faulty nodes go quiet.
       The engine ends the run when every live node has decided. *)
    advance st
  end

let init ~seed (ctx : Amac.Algorithm.ctx) =
  let n =
    match ctx.n with
    | Some n -> n
    | None -> invalid_arg "Byz_consensus: requires knowledge of n"
  in
  if ctx.input <> 0 && ctx.input <> 1 then
    invalid_arg "Byz_consensus: binary inputs only";
  let me = Amac.Node_id.unique_exn ctx.id in
  let st =
    {
      me;
      n;
      f = (if n <= 3 then 0 else (n - 1) / 3);
      seed;
      round = 0;
      est = ctx.input;
      est_from = Hashtbl.create 64;
      echoed = Hashtbl.create 16;
      bin = Hashtbl.create 16;
      aux_from = Hashtbl.create 64;
      aux_sent = Hashtbl.create 16;
      outbox = [];
      sending = false;
      decision = None;
      announced = false;
    }
  in
  advance st;
  let announce =
    match st.decision with
    | Some v ->
        st.announced <- true;
        [ Amac.Algorithm.Decide v ]
    | None -> []
  in
  (st, announce @ maybe_broadcast st)

let finish st =
  let announce =
    match st.decision with
    | Some v when not st.announced ->
        st.announced <- true;
        [ Amac.Algorithm.Decide v ]
    | Some _ | None -> []
  in
  announce @ maybe_broadcast st

let on_receive _ctx st { sender; body } =
  (match body with
  | Est { round; value } ->
      if value = 0 || value = 1 then
        Hashtbl.replace st.est_from (round, value, sender) ()
  | Aux { round; value } ->
      if
        (value = 0 || value = 1)
        && not (Hashtbl.mem st.aux_from (round, sender))
      then Hashtbl.replace st.aux_from (round, sender) value);
  advance st;
  finish st

let on_ack _ctx st =
  st.sending <- false;
  finish st

let msg_ids _ = 1

module F = Amac.Fingerprint

let fp_body body acc =
  match body with
  | Est { round; value } -> acc |> F.int 1 |> F.int round |> F.int value
  | Aux { round; value } -> acc |> F.int 2 |> F.int round |> F.int value

let fp_msg { sender; body } acc = acc |> F.int sender |> fp_body body

(* Tables fold in sorted key order so insertion order never splits
   fingerprints (same discipline as ben_or). *)
let fp_tbl fp_key fp_value tbl acc =
  let entries = Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [] in
  let entries = List.sort compare entries in
  F.list (fun (k, v) acc -> acc |> fp_key k |> fp_value v) entries acc

let fp_unit () acc = acc

let fingerprint st acc =
  acc |> F.int st.me |> F.int st.n |> F.int st.f |> F.int st.seed
  |> F.int st.round |> F.int st.est
  |> fp_tbl
       (fun (r, v, s) acc -> acc |> F.int r |> F.int v |> F.int s)
       fp_unit st.est_from
  |> fp_tbl (fun (r, v) acc -> acc |> F.int r |> F.int v) fp_unit st.echoed
  |> fp_tbl (fun (r, v) acc -> acc |> F.int r |> F.int v) fp_unit st.bin
  |> fp_tbl (fun (r, s) acc -> acc |> F.int r |> F.int s) F.int st.aux_from
  |> fp_tbl F.int fp_unit st.aux_sent
  |> F.list fp_body st.outbox |> F.bool st.sending
  |> F.option F.int st.decision
  |> F.bool st.announced

let clone st =
  {
    st with
    est_from = Hashtbl.copy st.est_from;
    echoed = Hashtbl.copy st.echoed;
    bin = Hashtbl.copy st.bin;
    aux_from = Hashtbl.copy st.aux_from;
    aux_sent = Hashtbl.copy st.aux_sent;
  }

let hooks = Some { Amac.Algorithm.fingerprint; fingerprint_msg = fp_msg; clone }

let make ~seed () =
  {
    Amac.Algorithm.name = Printf.sprintf "byz-consensus(seed=%d)" seed;
    init = init ~seed;
    on_receive;
    on_ack;
    msg_ids;
    hooks;
  }
