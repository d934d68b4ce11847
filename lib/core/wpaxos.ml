open Paxos_types

type component =
  | Leader of { id : int; hb : int }
  | Change of { counter : int; origin : int }
  | Search of { root : int; hops : int; sender : int }
  | Proposal of proposer_msg
  | Response of response
  | Decision of int

type msg = component list

module Instrument = Services.Instrument

type config = {
  leader_priority : bool;
  aggregate : bool;
  retransmit : bool;  (* fault hardening: heartbeats, re-election, re-proposal *)
}

(* The payload of a queued acceptor response. *)
type vote = {
  q_round : round;
  q_positive : bool;
  mutable q_count : int;
  mutable q_prior : prior option;
  mutable q_committed : pno option;
}

type state = { sv : vote Services.t; px : Services.paxos; cfg : config }

let response dest (e : vote Services.entry) =
  let v = e.body in
  Response
    {
      dest;
      target = e.target;
      pno = e.pno;
      round = v.q_round;
      positive = v.q_positive;
      count = v.q_count;
      best_prior = v.q_prior;
      committed = v.q_committed;
    }

let compose st =
  let sv = st.sv and px = st.px in
  let components = ref [] in
  (match px.decide_q with
  | Some v ->
      px.decide_q <- None;
      components := Decision v :: !components
  | None -> ());
  (match Services.dequeue sv ~emit:response with
  | Some c -> components := c :: !components
  | None -> ());
  (match px.proposal_q with
  | Some p ->
      px.proposal_q <- None;
      components := Proposal p :: !components
  | None -> ());
  (match
     Tree.pop sv.tree
       ~prefer:(if st.cfg.leader_priority then Some sv.omega else None)
   with
  | Some (root, hops) ->
      components := Search { root; hops; sender = sv.me } :: !components
  | None -> ());
  (match sv.change_q with
  | Some (counter, origin) ->
      sv.change_q <- None;
      components := Change { counter; origin } :: !components
  | None -> ());
  (match sv.leader_q with
  | Some id ->
      sv.leader_q <- None;
      (* The heartbeat value is read at send time so relays always carry
         the freshest count they know for that candidate. *)
      components := Leader { id; hb = Fd.hb sv.fd id } :: !components
  | None -> ());
  !components

let finish st = Services.finish st.sv st.px compose st

(* Responses of the same kind to the same proposition merge into a count,
   keeping the highest embedded prior (Sec 4.2.1). *)
let aggregate into v =
  into.q_round = v.q_round
  && into.q_positive = v.q_positive
  && begin
       into.q_count <- into.q_count + v.q_count;
       into.q_prior <- max_prior into.q_prior v.q_prior;
       into.q_committed <- max_committed into.q_committed v.q_committed;
       true
     end

let enqueue_response st ~target ~pno vote =
  Services.enqueue st.sv
    ~merge:(if st.cfg.aggregate then aggregate else fun _ _ -> false)
    ~target ~pno vote

(* Best unsuspected candidate among the ids we have heard from (we always
   know — and never suspect — ourselves). *)
let recompute_omega st =
  let next =
    Fd.candidate st.sv.fd ~base:st.sv.me ~eligible:(fun _ -> true)
  in
  if next <> st.sv.omega then Services.set_omega st.sv st.px next

let on_leader st ~id ~hb =
  (if st.cfg.retransmit then
     match Services.observe st.sv ~id ~hb with
     | Fresh_cleared -> recompute_omega st
     | Fresh | Stale -> ());
  if id > st.sv.omega && not (Fd.suspected st.sv.fd id) then
    Services.set_omega st.sv st.px id

let on_proposal st (message : proposer_msg) =
  if Services.on_proposal st.sv st.px message then begin
    (* Acceptor: respond once per proposition, routed up the leader's tree. *)
    let pno = pno_of_proposer_msg message in
    let q_round, q_positive, q_prior, q_committed =
      Services.acceptor_respond st.px message
    in
    enqueue_response st ~target:pno.proposer ~pno
      { q_round; q_positive; q_count = 1; q_prior; q_committed }
  end

let on_response st (r : response) =
  if r.dest = st.sv.me then
    if r.target = st.sv.me then
      Services.count st.sv st.px ~pno:r.pno ~round:r.round
        ~positive:r.positive ~prior:r.best_prior ~committed:r.committed
        ~count:r.count ~responder:(-1)
    else if r.target = st.sv.omega then
      (* Relay hop: re-enqueue toward our own parent, aggregating. *)
      enqueue_response st ~target:r.target ~pno:r.pno
        {
          q_round = r.round;
          q_positive = r.positive;
          q_count = r.count;
          q_prior = r.best_prior;
          q_committed = r.committed;
        }

(* Runs on every ack while undecided and patient (the ack is this model's
   only clock). A leader whose proposition stopped making counted progress
   escalates with a FRESH proposal number: acceptors answer a new number
   exactly once, so lost responses are replaced without ever
   double-counting aggregated counts from the old number. *)
let hardened_tick st =
  let sv = st.sv in
  if st.cfg.retransmit && st.px.decision = None && sv.patience_left > 0 then begin
    if Services.beat sv then recompute_omega st;
    ignore (Services.refresh sv);
    if Services.retry_due sv then Services.generate_proposal sv st.px
  end

let init cfg ~quorum ~instrument (ctx : Amac.Algorithm.ctx) =
  let n =
    match ctx.n with
    | Some n -> n
    | None -> invalid_arg "Wpaxos: requires knowledge of n (see Thm 3.9)"
  in
  let me = Amac.Node_id.unique_exn ctx.id in
  let st =
    {
      sv = Services.create ~me ~n ~omega:me ~patience:((4 * n) + 16);
      px =
        Services.paxos ~input:ctx.input
          ~quorum:(Option.value quorum ~default:((n / 2) + 1))
          ~distinct:false ~instrument;
      cfg;
    }
  in
  (* Initialisation counts as a change (omega and dist were just set): every
     node starts as its own leader and issues an initial proposal. *)
  Services.change st.sv st.px;
  (st, finish st)

(* Leader updates first so later components in the same broadcast are
   judged against the freshest omega. *)
let rank = function
  | Leader _ -> 0
  | Change _ -> 1
  | Search _ -> 2
  | Proposal _ -> 3
  | Response _ -> 4
  | Decision _ -> 5

let rec dispatch st = function
  | [] -> ()
  | component :: rest ->
      let sv = st.sv and px = st.px in
      (match component with
      | Leader { id; hb } -> on_leader st ~id ~hb
      | Change { counter; origin } ->
          if Services.on_change sv ~counter ~origin then Services.updateq sv px
      | Search { root; hops; sender } ->
          if Services.on_search sv ~root ~hops ~sender then
            Services.change sv px
      | Proposal p -> on_proposal st p
      | Response r -> on_response st r
      | Decision v -> Services.decide px v);
      dispatch st rest

let on_receive _ctx st (components : msg) =
  (* [compose] packs components in rank order, so only a forged or
     hand-built message is sorted. *)
  dispatch st (Services.in_rank_order ~rank components);
  (* Hardened decision refresh: an undecided hardened node heartbeats on
     every ack, so its broadcasts carry a Leader component. A decided node
     that hears one answers with its decision — this is how an amnesiac
     recovered node (or one a loss window starved) re-learns the outcome.
     Bounded: triggered only by heartbeats, which are patience-bounded. *)
  (if st.cfg.retransmit then
     match st.px.decision with
     | Some v
       when List.exists (function Leader _ -> true | _ -> false) components
            && not
                 (List.exists
                    (function Decision _ -> true | _ -> false)
                    components) ->
         st.px.decide_q <- Some v
     | Some _ | None -> ());
  finish st

let on_ack _ctx st =
  st.sv.sending <- false;
  hardened_tick st;
  finish st

let component_ids = function
  | Leader _ -> 1
  | Change _ -> 1
  | Search _ -> 2
  | Proposal p -> proposer_msg_ids p
  | Response r -> response_ids r
  | Decision _ -> 0

let msg_ids components = Services.msg_ids ~ids:component_ids components

let add_component buf = function
  | Leader { id; hb } ->
      Buffer.add_string buf "leader(";
      add_int buf id;
      Buffer.add_string buf ",hb=";
      add_int buf hb;
      Buffer.add_char buf ')'
  | Change { counter; origin } ->
      Buffer.add_string buf "change(";
      add_int buf counter;
      Buffer.add_char buf '@';
      add_int buf origin;
      Buffer.add_char buf ')'
  | Search { root; hops; sender } ->
      Buffer.add_string buf "search(root=";
      add_int buf root;
      Buffer.add_string buf ",h=";
      add_int buf hops;
      Buffer.add_string buf ",from=";
      add_int buf sender;
      Buffer.add_char buf ')'
  | Proposal p -> add_proposer_msg buf p
  | Response r -> add_response buf r
  | Decision v ->
      Buffer.add_string buf "decide(";
      add_int buf v;
      Buffer.add_char buf ')'

let pp_msg components =
  let buf = Buffer.create 128 in
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char buf '+';
      add_component buf c)
    components;
  Buffer.contents buf

(* Verification fast path (Algorithm.hooks). The state is wide but almost
   entirely ints and small variants; the tree service folds its routes in
   sorted root order so insertion history cannot split logically equal
   states. [cfg] is per-algorithm-instance and constant across a checking
   run, so it is skipped (and shared by [clone], including the instrument —
   instrumentation is not model state). *)
module F = Amac.Fingerprint

let fp_response (r : response) acc =
  acc |> F.int r.dest |> F.int r.target |> Services.fp_pno r.pno |> Services.fp_round r.round
  |> F.bool r.positive |> F.int r.count
  |> F.option Services.fp_prior r.best_prior
  |> F.option Services.fp_pno r.committed

let fp_component c acc =
  match c with
  | Leader { id; hb } -> acc |> F.int 1 |> F.int id |> F.int hb
  | Change { counter; origin } -> acc |> F.int 2 |> F.int counter |> F.int origin
  | Search { root; hops; sender } ->
      acc |> F.int 3 |> F.int root |> F.int hops |> F.int sender
  | Proposal p -> acc |> F.int 4 |> Services.fp_proposer_msg p
  | Response r -> acc |> F.int 5 |> fp_response r
  | Decision v -> acc |> F.int 6 |> F.int v

let fp_msg (components : msg) acc = F.list fp_component components acc

let fp_vote (e : vote Services.entry) acc =
  let v = e.body in
  acc |> F.int e.target |> Services.fp_pno e.pno |> Services.fp_round v.q_round
  |> F.bool v.q_positive |> F.int v.q_count
  |> F.option Services.fp_prior v.q_prior
  |> F.option Services.fp_pno v.q_committed

let fingerprint { sv; px; cfg = _ } acc =
  acc |> F.int sv.me |> F.int sv.n |> F.int px.input |> Services.fp_services sv
  |> Tree.fingerprint sv.tree |> Services.fp_paxos px
  |> F.list fp_vote sv.response_q
  |> Services.fp_decision px |> Services.fp_transport sv

let clone st =
  {
    st with
    sv = Services.clone (fun v -> { v with q_count = v.q_count }) st.sv;
    px = Services.clone_paxos st.px;
  }

let hooks = Some { Amac.Algorithm.fingerprint; fingerprint_msg = fp_msg; clone }

let make ?(leader_priority = true) ?(aggregate = true) ?quorum ?instrument
    ?(retransmit = true) () =
  (match quorum with
  | Some q when q < 1 -> invalid_arg "Wpaxos.make: quorum must be >= 1"
  | Some _ | None -> ());
  let cfg = { leader_priority; aggregate; retransmit } in
  {
    Amac.Algorithm.name =
      (if leader_priority && aggregate && retransmit then "wpaxos"
       else
         Printf.sprintf "wpaxos[prio=%b,agg=%b,rtx=%b]" leader_priority
           aggregate retransmit);
    init = init cfg ~quorum ~instrument;
    on_receive;
    on_ack;
    msg_ids;
    hooks;
  }
