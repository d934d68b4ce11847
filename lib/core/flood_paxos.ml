open Paxos_types

(* A single acceptor's (un-aggregated) response, flooded network-wide. *)
type unit_response = {
  responder : int;
  target : int;
  u_pno : pno;
  u_round : round;
  positive : bool;
  prior : prior option;
  committed : pno option;
}

type component =
  | Leader of int
  | Change of { counter : int; origin : int }
  | Proposal of proposer_msg
  | Unit of unit_response
  | Decision of int

type msg = component list

(* The leader election, change and broadcast services and the proposer and
   acceptor are wPAXOS's, with hardening off: the tree stays empty and the
   detector only ever watches the leader. [response_q] holds the units to
   forward, FIFO. *)
type state = {
  sv : unit_response Services.t;
  px : Services.paxos;
  seen_units : (int * pno * round, unit) Hashtbl.t;
      (* dedup on (responder, proposition) *)
}

let compose st =
  let sv = st.sv and px = st.px in
  let components = ref [] in
  (match px.decide_q with
  | Some v ->
      px.decide_q <- None;
      components := Decision v :: !components
  | None -> ());
  (match sv.response_q with
  | e :: rest ->
      sv.response_q <- rest;
      components := Unit e.body :: !components
  | [] -> ());
  (match px.proposal_q with
  | Some p ->
      px.proposal_q <- None;
      components := Proposal p :: !components
  | None -> ());
  (match sv.change_q with
  | Some (counter, origin) ->
      sv.change_q <- None;
      components := Change { counter; origin } :: !components
  | None -> ());
  (match sv.leader_q with
  | Some id ->
      sv.leader_q <- None;
      components := Leader id :: !components
  | None -> ());
  !components

(* Units never merge: each stands for one responder. Queue invariant: flood
   only responses to the current leader's largest proposal number (the
   Θ(n) distinct units per proposition remain). *)
let enqueue_unit st (u : unit_response) =
  let key = (u.responder, u.u_pno, u.u_round) in
  if not (Hashtbl.mem st.seen_units key) then begin
    Hashtbl.replace st.seen_units key ();
    Services.enqueue st.sv
      ~merge:(fun _ _ -> false)
      ~target:u.target ~pno:u.u_pno u
  end

let on_proposal st (message : proposer_msg) =
  if Services.on_proposal st.sv st.px message then begin
    let pno = pno_of_proposer_msg message in
    let round, positive, prior, committed =
      Services.acceptor_respond st.px message
    in
    enqueue_unit st
      {
        responder = st.sv.me;
        target = pno.proposer;
        u_pno = pno;
        u_round = round;
        positive;
        prior;
        committed;
      }
  end

let on_unit st (u : unit_response) =
  if u.target = st.sv.me then
    Services.count st.sv st.px ~pno:u.u_pno ~round:u.u_round
      ~positive:u.positive ~prior:u.prior ~committed:u.committed ~count:1
      ~responder:u.responder
  else if u.target = st.sv.omega then enqueue_unit st u

let init (ctx : Amac.Algorithm.ctx) =
  let n =
    match ctx.n with
    | Some n -> n
    | None -> invalid_arg "Flood_paxos: requires knowledge of n"
  in
  let me = Amac.Node_id.unique_exn ctx.id in
  let st =
    {
      sv = Services.create ~me ~n ~omega:me ~patience:1;
      px =
        Services.paxos ~input:ctx.input ~quorum:((n / 2) + 1) ~distinct:true
          ~instrument:None;
      seen_units = Hashtbl.create 64;
    }
  in
  Services.change st.sv st.px;
  (st, Services.finish st.sv st.px compose st)

let rank = function
  | Leader _ -> 0
  | Change _ -> 1
  | Proposal _ -> 2
  | Unit _ -> 3
  | Decision _ -> 4

let on_receive _ctx st (components : msg) =
  let sv = st.sv and px = st.px in
  List.iter
    (fun component ->
      match component with
      | Leader id -> if id > sv.omega then Services.set_omega sv px id
      | Change { counter; origin } ->
          if Services.on_change sv ~counter ~origin then Services.updateq sv px
      | Proposal p -> on_proposal st p
      | Unit u -> on_unit st u
      | Decision v -> Services.decide px v)
    (Services.in_rank_order ~rank components);
  Services.finish sv px compose st

let on_ack _ctx st =
  st.sv.sending <- false;
  Services.finish st.sv st.px compose st

let component_ids = function
  | Leader _ -> 1
  | Change _ -> 1
  | Proposal p -> proposer_msg_ids p
  | Unit u ->
      3
      + (match u.prior with None -> 0 | Some _ -> 1)
      + (match u.committed with None -> 0 | Some _ -> 1)
  | Decision _ -> 0

let msg_ids components = Services.msg_ids ~ids:component_ids components

let pp_component = function
  | Leader id -> Printf.sprintf "leader(%d)" id
  | Change { counter; origin } -> Printf.sprintf "change(%d@%d)" counter origin
  | Proposal p -> pp_proposer_msg p
  | Unit u ->
      Printf.sprintf "unit{from=%d;tgt=%d;%s;%s}" u.responder u.target
        (pp_pno u.u_pno)
        (if u.positive then "yes" else "no")
  | Decision v -> Printf.sprintf "decide(%d)" v

let pp_msg components = String.concat "+" (List.map pp_component components)

(* Verification fast path (Algorithm.hooks). The tallies inside the
   proposer phase and [seen_units] are folded in sorted order (responder
   ids, resp. (responder, pno, round) keys under polymorphic compare) so
   insertion history cannot split logically equal states. The unit queue
   keeps FIFO order — it decides which unit the next broadcast carries. *)
module F = Amac.Fingerprint

let fp_unit (u : unit_response) acc =
  acc |> F.int u.responder |> F.int u.target |> Services.fp_pno u.u_pno
  |> Services.fp_round u.u_round |> F.bool u.positive
  |> F.option Services.fp_prior u.prior
  |> F.option Services.fp_pno u.committed

let fp_seen_units tbl acc =
  let keys = Hashtbl.fold (fun k () l -> k :: l) tbl [] in
  F.list
    (fun (responder, pno, round) acc ->
      acc |> F.int responder |> Services.fp_pno pno |> Services.fp_round round)
    (List.sort compare keys) acc

let fp_component c acc =
  match c with
  | Leader id -> acc |> F.int 1 |> F.int id
  | Change { counter; origin } -> acc |> F.int 2 |> F.int counter |> F.int origin
  | Proposal p -> acc |> F.int 3 |> Services.fp_proposer_msg p
  | Unit u -> acc |> F.int 4 |> fp_unit u
  | Decision v -> acc |> F.int 5 |> F.int v

let fp_msg (components : msg) acc = F.list fp_component components acc

let fingerprint { sv; px; seen_units } acc =
  acc |> F.int sv.me |> F.int sv.n |> F.int px.input
  |> Services.fp_services sv |> Services.fp_paxos px
  |> F.list (fun (e : unit_response Services.entry) -> fp_unit e.body)
       sv.response_q
  |> fp_seen_units seen_units |> Services.fp_decision px |> F.bool sv.sending

let clone st =
  {
    sv = Services.clone Fun.id st.sv;
    px = Services.clone_paxos st.px;
    seen_units = Hashtbl.copy st.seen_units;
  }

let hooks = Some { Amac.Algorithm.fingerprint; fingerprint_msg = fp_msg; clone }

let make () =
  {
    Amac.Algorithm.name = "flood-paxos";
    init;
    on_receive;
    on_ack;
    msg_ids;
    hooks;
  }
