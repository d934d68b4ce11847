open Paxos_types

type component =
  | Leader of { id : int; hb : int }
  | Change of { counter : int; origin : int }
  | Search of { root : int; hops : int; sender : int }
  | Proposal of proposer_msg
  | Response of response
  | Decision of int

type msg = component list

module Instrument = struct
  (* Conservation accounting for Lemma 4.2: [generated] counts affirmative
     responses produced by acceptors, [counted] counts what proposers
     accumulate. The lemma says counted <= generated, per proposition. *)
  type key = { k_pno : pno; k_round : round }

  type t = {
    generated_tbl : (key, int) Hashtbl.t;
    counted_tbl : (key, int) Hashtbl.t;
  }

  let create () =
    { generated_tbl = Hashtbl.create 64; counted_tbl = Hashtbl.create 64 }

  let bump tbl key amount =
    let current = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (current + amount)

  let note_generated t ~pno ~round =
    bump t.generated_tbl { k_pno = pno; k_round = round } 1

  let note_counted t ~pno ~round ~count =
    bump t.counted_tbl { k_pno = pno; k_round = round } count

  let violations t =
    Hashtbl.fold
      (fun key counted acc ->
        let generated =
          Option.value ~default:0 (Hashtbl.find_opt t.generated_tbl key)
        in
        if counted > generated then
          (key.k_pno, key.k_round, generated, counted) :: acc
        else acc)
      t.counted_tbl []

  let total tbl = Hashtbl.fold (fun _ v acc -> acc + v) tbl 0

  let generated t = total t.generated_tbl

  let counted t = total t.counted_tbl

  let max_tag t =
    Hashtbl.fold
      (fun key _ acc -> max acc key.k_pno.tag)
      t.generated_tbl 0
end

type config = {
  leader_priority : bool;
  aggregate : bool;
  quorum : int option;  (* override of the majority threshold (footnote 1) *)
  instrument : Instrument.t option;
  retransmit : bool;  (* fault hardening: heartbeats, re-election, re-proposal *)
}

type proposer_phase =
  | Idle
  | Preparing of {
      pno : pno;
      mutable yes : int;
      mutable no : int;
      mutable best_prior : prior option;
    }
  | Proposing of {
      pno : pno;
      value : int;
      mutable yes : int;
      mutable no : int;
    }

(* An acceptor response waiting in the outgoing queue. The destination
   (parent in the tree rooted at [q_target]) is resolved when the response is
   dequeued for sending, so routing always uses the freshest parent pointer;
   an entry whose target has no known parent yet simply stays queued. *)
type pending_response = {
  q_target : int;
  q_pno : pno;
  q_round : round;
  q_positive : bool;
  mutable q_count : int;
  mutable q_prior : prior option;
  mutable q_committed : pno option;
}

type state = {
  me : int;
  n : int;
  input : int;
  cfg : config;
  (* leader election service (Alg 2) *)
  mutable omega : int;
  mutable leader_q : int option;
  (* change service (Alg 3) *)
  mutable lamport : int;
  mutable last_change : int * int;  (* (counter, origin); (-1,-1) = -inf *)
  mutable change_q : (int * int) option;
  tree : Tree.t;  (* tree building service (Alg 4) *)
  (* proposer *)
  mutable max_tag : int;
  mutable phase : proposer_phase;
  mutable attempts_left : int;
  mutable proposal_q : proposer_msg option;
  mutable best_proposal_seen : (pno * round) option;
  (* acceptor *)
  mutable promised : pno option;
  mutable accepted : prior option;
  mutable responded : (pno * round) option;
  mutable response_q : pending_response list;
  (* decision *)
  mutable decision : int option;
  mutable announced : bool;
  mutable decide_q : int option;
  (* transport *)
  mutable sending : bool;
  (* hardening (all inert unless cfg.retransmit). The ack is the ONLY clock
     in this model: a node that stops broadcasting stops observing time and
     can never wake itself, so an undecided hardened node keeps a heartbeat
     broadcast going — bounded by [patience_left] so that runs in which
     consensus is genuinely impossible (majority crashed) still quiesce.
     Heartbeat emission, silence accounting and the suspected set live in
     the ◇P detector. *)
  fd : Fd.t;
  mutable idle_acks : int;  (* acks since the last tree-refresh *)
  mutable next_refresh : int;  (* tree-refresh backoff, in acks *)
  mutable progress_silence : int;  (* leader acks since counted progress *)
  mutable next_retry : int;  (* re-proposal backoff, in acks *)
  retry_start : int;
  retry_cap : int;
  mutable retries_left : int;  (* re-proposal budget per leadership epoch *)
  mutable patience_left : int;  (* heartbeat budget; refilled on progress *)
}

(* Hardening tunables. All counts are in the node's own acks (~F_ack each).
   The re-proposal timeout scales with n so a healthy high-diameter
   aggregation wave (Theta(D) acks) is never mistaken for loss. *)
let refresh_start = 4

let refresh_cap = 64

let patience_max = 512

let max_retries = 8

let majority st =
  match st.cfg.quorum with Some q -> q | None -> (st.n / 2) + 1

(* Once this many acceptors rejected, yes can no longer reach a majority.
   (The paper says "a majority of the acceptors rejecting"; with even n a
   proposition can split n/2–n/2 and reach neither majority, so we fail at
   the exact can't-win point instead.) *)
let fail_threshold st = st.n - majority st + 1

let hb_of st id = Fd.hb st.fd id

let suspected st id = Fd.suspected st.fd id

(* Observable protocol progress refills the heartbeat budget: as long as
   state keeps advancing somewhere, hardened nodes keep knocking. Every
   refill site is a finite-progress event (distances only shrink, stamps
   only grow, one response per acceptor per proposition, re-proposals are
   budgeted), so total refills are finite and a stuck run still drains. *)
let refill st = if st.cfg.retransmit then st.patience_left <- patience_max

(* ------------------------------------------------------------------ *)
(* Broadcast service (Alg 5): pack one message per non-empty queue.    *)
(* ------------------------------------------------------------------ *)

(* Take the first response whose destination is routable; unroutable entries
   stay queued until a search message establishes the parent pointer. *)
let dequeue_response st =
  let rec pick acc = function
    | [] -> None
    | entry :: rest -> (
        match Tree.parent st.tree entry.q_target with
        | Some parent_id ->
            st.response_q <- List.rev_append acc rest;
            Some
              (Response
                 {
                   dest = parent_id;
                   target = entry.q_target;
                   pno = entry.q_pno;
                   round = entry.q_round;
                   positive = entry.q_positive;
                   count = entry.q_count;
                   best_prior = entry.q_prior;
                   committed = entry.q_committed;
                 })
        | None -> pick (entry :: acc) rest)
  in
  pick [] st.response_q

let compose st =
  let components = ref [] in
  (match st.decide_q with
  | Some v ->
      st.decide_q <- None;
      components := Decision v :: !components
  | None -> ());
  (match dequeue_response st with
  | Some c -> components := c :: !components
  | None -> ());
  (match st.proposal_q with
  | Some p ->
      st.proposal_q <- None;
      components := Proposal p :: !components
  | None -> ());
  (match
     Tree.pop st.tree
       ~prefer:(if st.cfg.leader_priority then Some st.omega else None)
   with
  | Some (root, hops) ->
      components := Search { root; hops; sender = st.me } :: !components
  | None -> ());
  (match st.change_q with
  | Some (counter, origin) ->
      st.change_q <- None;
      components := Change { counter; origin } :: !components
  | None -> ());
  (match st.leader_q with
  | Some id ->
      st.leader_q <- None;
      (* The heartbeat value is read at send time so relays always carry
         the freshest count they know for that candidate. *)
      components := Leader { id; hb = hb_of st id } :: !components
  | None -> ());
  !components

let maybe_send st =
  if st.sending then []
  else
    match compose st with
    | [] -> []
    | components ->
        st.sending <- true;
        [ Amac.Algorithm.Broadcast components ]

(* Wrap up a handler: emit a pending decide announcement, then try to send. *)
let finish st =
  match st.decision with
  | Some v when not st.announced ->
      st.announced <- true;
      Amac.Algorithm.Decide v :: maybe_send st
  | Some _ | None -> maybe_send st

(* ------------------------------------------------------------------ *)
(* PAXOS proposer and acceptor                                          *)
(* ------------------------------------------------------------------ *)

let decide st value =
  if st.decision = None then begin
    st.decision <- Some value;
    st.decide_q <- Some value;
    st.phase <- Idle
  end

(* Whether every entry targets [target] and carries [pno]. *)
let rec conforms ~target ~pno = function
  | [] -> true
  | entry :: rest ->
      entry.q_target = target
      && compare_pno entry.q_pno pno = 0
      && conforms ~target ~pno rest

(* Queue invariant (Sec 4.2.1): responses only for the current leader's
   largest proposal number. A queue that already conforms (the usual case:
   every entry is for one proposition of the leader) is left as it is. *)
let prune_response_q st =
  match st.response_q with
  | [] -> ()
  | first :: _ when conforms ~target:st.omega ~pno:first.q_pno st.response_q ->
      ()
  | _ :: _ -> (
      st.response_q <-
        List.filter (fun entry -> entry.q_target = st.omega) st.response_q;
      let largest =
        List.fold_left
          (fun acc entry ->
            match acc with
            | None -> Some entry.q_pno
            | Some best ->
                if pno_lt best entry.q_pno then Some entry.q_pno else acc)
          None st.response_q
      in
      match largest with
      | None -> ()
      | Some best ->
          st.response_q <-
            List.filter
              (fun entry -> compare_pno entry.q_pno best = 0)
              st.response_q)

let enqueue_response st ~target ~pno ~round ~positive ~count ~prior ~committed =
  let entry =
    {
      q_target = target;
      q_pno = pno;
      q_round = round;
      q_positive = positive;
      q_count = count;
      q_prior = prior;
      q_committed = committed;
    }
  in
  let mergeable existing =
    existing.q_target = entry.q_target
    && compare_pno existing.q_pno entry.q_pno = 0
    && existing.q_round = entry.q_round
    && existing.q_positive = entry.q_positive
  in
  (if st.cfg.aggregate then
     match List.find_opt mergeable st.response_q with
     | Some existing ->
         existing.q_count <- existing.q_count + entry.q_count;
         existing.q_prior <- max_prior existing.q_prior entry.q_prior;
         existing.q_committed <- max_committed existing.q_committed entry.q_committed
     | None -> st.response_q <- st.response_q @ [ entry ]
   else st.response_q <- st.response_q @ [ entry ]);
  prune_response_q st

let note_counted st ~pno ~round ~count =
  match st.cfg.instrument with
  | Some instrument when count > 0 ->
      Instrument.note_counted instrument ~pno ~round ~count
  | Some _ | None -> ()

let rec generate_proposal st =
  if st.decision = None && st.omega = st.me then begin
    st.max_tag <- st.max_tag + 1;
    let pno = { tag = st.max_tag; proposer = st.me } in
    st.phase <- Preparing { pno; yes = 0; no = 0; best_prior = None };
    let message = Prepare pno in
    st.proposal_q <- Some message;
    st.best_proposal_seen <- Some (pno, Prepare_round);
    self_respond st message
  end

(* The change service's UpdateQ (Alg 3): enqueue the stamp and, at the
   leader, generate a fresh proposal. *)
and change_updateq st stamp =
  st.change_q <- Some stamp;
  if st.omega = st.me && st.decision = None then begin
    st.attempts_left <- 1;
    (* A change notification opens a fresh leadership epoch: restore the
       hardened re-proposal budget and backoff. *)
    st.retries_left <- max_retries;
    st.next_retry <- st.retry_start;
    generate_proposal st
  end

(* ONCHANGE (Alg 3): omega or a dist entry was updated locally. *)
and local_change st =
  st.lamport <- st.lamport + 1;
  let stamp = (st.lamport, st.me) in
  st.last_change <- stamp;
  change_updateq st stamp

(* A proposition failed with a majority of rejections. The paper allows one
   immediate retry per change notification; past that we raise a fresh local
   change (documented deviation — see the .mli), which floods and resets the
   budget. Each retry sets the tag above every committed number learned, so
   the retry chain terminates. *)
and proposition_failed st =
  if st.omega = st.me && st.decision = None then begin
    if st.attempts_left > 0 then begin
      st.attempts_left <- st.attempts_left - 1;
      generate_proposal st
    end
    else local_change st
  end
  else st.phase <- Idle

and start_propose st ~pno ~best_prior =
  let value =
    match best_prior with Some prior -> prior.value | None -> st.input
  in
  st.phase <- Proposing { pno; value; yes = 0; no = 0 };
  let message = Propose { pno; value } in
  st.proposal_q <- Some message;
  st.best_proposal_seen <- Some (pno, Propose_round);
  self_respond st message

(* Proposer-side counting of (aggregated) responses addressed to us. *)
and count_response st (r : response) =
  match st.phase with
  | Preparing p when compare_pno p.pno r.pno = 0 && r.round = Prepare_round ->
      st.progress_silence <- 0;
      refill st;
      if r.positive then begin
        note_counted st ~pno:r.pno ~round:r.round ~count:r.count;
        p.yes <- p.yes + r.count;
        p.best_prior <- max_prior p.best_prior r.best_prior;
        if p.yes >= majority st then
          start_propose st ~pno:p.pno ~best_prior:p.best_prior
      end
      else begin
        p.no <- p.no + r.count;
        (match r.committed with
        | Some committed -> st.max_tag <- max st.max_tag committed.tag
        | None -> ());
        if p.no >= fail_threshold st then proposition_failed st
      end
  | Proposing p when compare_pno p.pno r.pno = 0 && r.round = Propose_round ->
      st.progress_silence <- 0;
      refill st;
      if r.positive then begin
        note_counted st ~pno:r.pno ~round:r.round ~count:r.count;
        p.yes <- p.yes + r.count;
        if p.yes >= majority st then decide st p.value
      end
      else begin
        p.no <- p.no + r.count;
        (match r.committed with
        | Some committed -> st.max_tag <- max st.max_tag committed.tag
        | None -> ());
        if p.no >= fail_threshold st then proposition_failed st
      end
  | Idle | Preparing _ | Proposing _ -> ()

(* Acceptor logic. Returns the response this acceptor generates, already
   noted in the instrumentation. *)
and acceptor_respond st (message : proposer_msg) =
  let pno = pno_of_proposer_msg message in
  let ok =
    match st.promised with None -> true | Some p -> pno_le p pno
  in
  let round, positive, prior, committed =
    match message with
    | Prepare _ ->
        if ok then begin
          st.promised <- Some pno;
          (Prepare_round, true, st.accepted, None)
        end
        else (Prepare_round, false, None, st.promised)
    | Propose { value; _ } ->
        if ok then begin
          st.promised <- Some pno;
          st.accepted <- Some { pno; value };
          (Propose_round, true, None, None)
        end
        else (Propose_round, false, None, st.promised)
  in
  st.responded <- Some (pno, round);
  (match st.cfg.instrument with
  | Some instrument when positive ->
      Instrument.note_generated instrument ~pno ~round
  | Some _ | None -> ());
  (round, positive, prior, committed)

(* The proposer's own acceptor answers directly, skipping the queue. *)
and self_respond st (message : proposer_msg) =
  let pno = pno_of_proposer_msg message in
  let round, positive, prior, committed = acceptor_respond st message in
  count_response st
    {
      dest = st.me;
      target = st.me;
      pno;
      round;
      positive;
      count = 1;
      best_prior = prior;
      committed;
    }

(* ------------------------------------------------------------------ *)
(* Component handlers                                                   *)
(* ------------------------------------------------------------------ *)

(* ONLEADERCHANGE, factored so monotone adoption (Alg 2) and the hardened
   demotion path (suspected leader) share it: the proposer stands down, both
   PAXOS queues keep only current-leader content, and the update counts as a
   change event (Alg 3). *)
let set_omega st id =
  st.omega <- id;
  st.leader_q <- Some id;
  st.phase <- Idle;
  (match st.proposal_q with
  | Some p when (pno_of_proposer_msg p).proposer <> st.omega ->
      st.proposal_q <- None
  | Some _ | None -> ());
  prune_response_q st;
  Fd.watch st.fd ~peer:id;
  refill st;
  local_change st

(* Best unsuspected candidate among the ids we have heard from (we always
   know — and never suspect — ourselves). *)
let candidate_omega st =
  Fd.candidate st.fd ~base:st.me ~eligible:(fun _ -> true)

let recompute_omega st =
  let next = candidate_omega st in
  if next <> st.omega then set_omega st next

let on_leader st ~id ~hb =
  (if st.cfg.retransmit && id <> st.me then
     match Fd.observe st.fd ~peer:id ~hb with
     | Stale -> ()
     | verdict ->
         (* Relay the fresh heartbeat so it floods network-wide. *)
         if id = st.omega then st.leader_q <- Some id;
         (match verdict with
         | Fresh_cleared ->
             (* Heartbeats advanced past the suspicion point: the candidate
                was alive after all (e.g. a loss window ate its traffic). *)
             refill st;
             recompute_omega st
         | Fresh | Stale -> ()));
  if id > st.omega && not (suspected st id) then set_omega st id

let on_change st ~counter ~origin =
  st.lamport <- max st.lamport counter;
  let last_counter, last_origin = st.last_change in
  if counter > last_counter || (counter = last_counter && origin > last_origin)
  then begin
    let stamp = (counter, origin) in
    st.last_change <- stamp;
    refill st;
    change_updateq st stamp
  end

let on_search st ~root ~hops ~sender =
  if Tree.improve st.tree ~root ~hops ~sender then begin
    refill st;
    (* A change event (Alg 3) — but only for the distance to the CURRENT
       leader. This is the reading Lemma 4.5's GST argument needs: changes
       stop once the leader election and the leader's tree stabilize
       (O(D*F_ack)), even though background trees for other roots keep
       refining for Theta(n*F_ack). Firing on every root's dist update
       would keep regenerating proposals over that whole window and inflate
       decision latency from O(D*F_ack) to Theta(n*F_ack). *)
    if root = st.omega then local_change st
  end

let proposition_gt a b =
  match b with None -> true | Some b -> compare_proposition a b > 0

let on_proposal st (message : proposer_msg) =
  let pno = pno_of_proposer_msg message in
  st.max_tag <- max st.max_tag pno.tag;
  if pno.proposer = st.omega && pno.proposer <> st.me then begin
    let round =
      match message with Prepare _ -> Prepare_round | Propose _ -> Propose_round
    in
    (* Flooding with the proposer-queue invariant: forward the first copy of
       each proposition, keeping only the largest from the current leader. *)
    if proposition_gt (pno, round) st.best_proposal_seen then begin
      st.best_proposal_seen <- Some (pno, round);
      st.proposal_q <- Some message;
      refill st
    end;
    (* Acceptor: respond once per proposition, routed up the leader's tree. *)
    if proposition_gt (pno, round) st.responded then begin
      let round, positive, prior, committed = acceptor_respond st message in
      enqueue_response st ~target:pno.proposer ~pno ~round ~positive ~count:1
        ~prior ~committed
    end
  end

let on_response st (r : response) =
  if r.dest = st.me then
    if r.target = st.me then count_response st r
    else if r.target = st.omega then
      (* Relay hop: re-enqueue toward our own parent, aggregating. *)
      enqueue_response st ~target:r.target ~pno:r.pno ~round:r.round
        ~positive:r.positive ~count:r.count ~prior:r.best_prior
        ~committed:r.committed

let on_decision st value =
  if st.decision = None then begin
    st.decision <- Some value;
    st.decide_q <- Some value;
    st.phase <- Idle
  end

(* ------------------------------------------------------------------ *)
(* Hardened ack tick (retransmit mode)                                  *)
(* ------------------------------------------------------------------ *)

(* Runs on every ack while undecided and patient. The ack is this model's
   only clock, so everything time-based lives here, measured in own acks:
   the leader advances its heartbeat; followers count silence and suspect a
   leader whose heartbeat stalls; routes to the leader are re-advertised on
   an exponential backoff; and a leader whose proposition stopped making
   counted progress escalates with a FRESH proposal number — acceptors'
   responded-guard makes them answer a new number exactly once, so lost
   responses are replaced without ever double-counting aggregated counts
   from the old number. Setting [leader_q] unconditionally guarantees the
   next broadcast, i.e. the clock keeps ticking. *)
let hardened_tick st =
  if st.cfg.retransmit && st.decision = None && st.patience_left > 0 then begin
    st.patience_left <- st.patience_left - 1;
    (if st.omega = st.me then ignore (Fd.beat st.fd)
     else
       match Fd.tick st.fd ~peer:st.omega with
       | Suspect -> recompute_omega st
       | Ok -> ());
    st.leader_q <- Some st.omega;
    st.idle_acks <- st.idle_acks + 1;
    if st.idle_acks >= st.next_refresh then begin
      st.idle_acks <- 0;
      st.next_refresh <- min (2 * st.next_refresh) refresh_cap;
      (* Re-advertise our route to the leader (UpdateQ form, Alg 4) so
         nodes that lost the search wave learn parent pointers and stuck
         unroutable responses get unstuck. *)
      Tree.readvertise st.tree ~root:st.omega
    end;
    if st.omega = st.me && st.retries_left > 0 then begin
      st.progress_silence <- st.progress_silence + 1;
      if st.progress_silence >= st.next_retry then begin
        st.progress_silence <- 0;
        st.next_retry <- min (2 * st.next_retry) st.retry_cap;
        st.retries_left <- st.retries_left - 1;
        generate_proposal st
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Algorithm wiring                                                     *)
(* ------------------------------------------------------------------ *)

let init cfg (ctx : Amac.Algorithm.ctx) =
  let n =
    match ctx.n with
    | Some n -> n
    | None -> invalid_arg "Wpaxos: requires knowledge of n (see Thm 3.9)"
  in
  let me = Amac.Node_id.unique_exn ctx.id in
  let st =
    {
      me;
      n;
      input = ctx.input;
      cfg;
      omega = me;
      leader_q = Some me;
      lamport = 0;
      last_change = (-1, -1);
      change_q = None;
      tree = Tree.create ~me;
      max_tag = 0;
      phase = Idle;
      attempts_left = 1;
      proposal_q = None;
      best_proposal_seen = None;
      promised = None;
      accepted = None;
      responded = None;
      response_q = [];
      decision = None;
      announced = false;
      decide_q = None;
      sending = false;
      fd = Fd.create ~patience:((4 * n) + 16) ~me ();
      idle_acks = 0;
      next_refresh = refresh_start;
      progress_silence = 0;
      next_retry = (2 * n) + 8;
      retry_start = (2 * n) + 8;
      retry_cap = 16 * ((2 * n) + 8);
      retries_left = max_retries;
      patience_left = patience_max;
    }
  in
  (* Initialisation counts as a change (omega and dist were just set): every
     node starts as its own leader and issues an initial proposal. *)
  local_change st;
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

let rec ranked prev = function
  | [] -> true
  | c :: rest ->
      let r = rank c in
      prev <= r && ranked r rest

let rec dispatch st = function
  | [] -> ()
  | component :: rest ->
      (match component with
      | Leader { id; hb } -> on_leader st ~id ~hb
      | Change { counter; origin } -> on_change st ~counter ~origin
      | Search { root; hops; sender } -> on_search st ~root ~hops ~sender
      | Proposal p -> on_proposal st p
      | Response r -> on_response st r
      | Decision v -> on_decision st v);
      dispatch st rest

(* [compose] packs components in rank order, and a stable sort of a
   ranked list is the identity: sort only what arrives out of rank (a
   forged or hand-built message). *)
let in_rank_order (components : msg) =
  if ranked 0 components then components
  else List.sort (fun a b -> Int.compare (rank a) (rank b)) components

let on_receive _ctx st (components : msg) =
  dispatch st (in_rank_order components);
  (* Hardened decision refresh: an undecided hardened node heartbeats on
     every ack, so its broadcasts carry a Leader component. A decided node
     that hears one answers with its decision — this is how an amnesiac
     recovered node (or one a loss window starved) re-learns the outcome.
     Bounded: triggered only by heartbeats, which are patience-bounded. *)
  (if st.cfg.retransmit then
     match st.decision with
     | Some v
       when List.exists (function Leader _ -> true | _ -> false) components
            && not
                 (List.exists
                    (function Decision _ -> true | _ -> false)
                    components) ->
         st.decide_q <- Some v
     | Some _ | None -> ());
  finish st

let on_ack _ctx st =
  st.sending <- false;
  hardened_tick st;
  finish st

let component_ids = function
  | Leader _ -> 1
  | Change _ -> 1
  | Search _ -> 2
  | Proposal p -> proposer_msg_ids p
  | Response r -> response_ids r
  | Decision _ -> 0

let msg_ids components =
  List.fold_left (fun acc c -> acc + component_ids c) 0 components

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

let fp_pno { tag; proposer } acc = acc |> F.int tag |> F.int proposer

let fp_prior { pno; value } acc = acc |> fp_pno pno |> F.int value

let fp_round r acc =
  F.int (match r with Prepare_round -> 0 | Propose_round -> 1) acc

let fp_proposer_msg m acc =
  match m with
  | Prepare pno -> acc |> F.int 1 |> fp_pno pno
  | Propose { pno; value } -> acc |> F.int 2 |> fp_pno pno |> F.int value

let fp_response (r : response) acc =
  acc |> F.int r.dest |> F.int r.target |> fp_pno r.pno |> fp_round r.round
  |> F.bool r.positive |> F.int r.count
  |> F.option fp_prior r.best_prior
  |> F.option fp_pno r.committed

let fp_component c acc =
  match c with
  | Leader { id; hb } -> acc |> F.int 1 |> F.int id |> F.int hb
  | Change { counter; origin } -> acc |> F.int 2 |> F.int counter |> F.int origin
  | Search { root; hops; sender } ->
      acc |> F.int 3 |> F.int root |> F.int hops |> F.int sender
  | Proposal p -> acc |> F.int 4 |> fp_proposer_msg p
  | Response r -> acc |> F.int 5 |> fp_response r
  | Decision v -> acc |> F.int 6 |> F.int v

let fp_msg (components : msg) acc = F.list fp_component components acc

let fp_phase phase acc =
  match phase with
  | Idle -> F.int 0 acc
  | Preparing p ->
      acc |> F.int 1 |> fp_pno p.pno |> F.int p.yes |> F.int p.no
      |> F.option fp_prior p.best_prior
  | Proposing p ->
      acc |> F.int 2 |> fp_pno p.pno |> F.int p.value |> F.int p.yes
      |> F.int p.no

let fp_pending (e : pending_response) acc =
  acc |> F.int e.q_target |> fp_pno e.q_pno |> fp_round e.q_round
  |> F.bool e.q_positive |> F.int e.q_count
  |> F.option fp_prior e.q_prior
  |> F.option fp_pno e.q_committed

let fp_pair (a, b) acc = acc |> F.int a |> F.int b

let fingerprint st acc =
  acc |> F.int st.me |> F.int st.n |> F.int st.input |> F.int st.omega
  |> F.option F.int st.leader_q
  |> F.int st.lamport |> fp_pair st.last_change
  |> F.option fp_pair st.change_q
  |> Tree.fingerprint st.tree
  |> F.int st.max_tag |> fp_phase st.phase |> F.int st.attempts_left
  |> F.option fp_proposer_msg st.proposal_q
  |> F.option
       (fun (pno, round) acc -> acc |> fp_pno pno |> fp_round round)
       st.best_proposal_seen
  |> F.option fp_pno st.promised
  |> F.option fp_prior st.accepted
  |> F.option
       (fun (pno, round) acc -> acc |> fp_pno pno |> fp_round round)
       st.responded
  |> F.list fp_pending st.response_q
  |> F.option F.int st.decision
  |> F.bool st.announced
  |> F.option F.int st.decide_q
  |> F.bool st.sending
  |> Fd.fingerprint st.fd
  |> F.int st.idle_acks |> F.int st.next_refresh |> F.int st.progress_silence
  |> F.int st.next_retry |> F.int st.retries_left |> F.int st.patience_left

let clone st =
  {
    st with
    tree = Tree.clone st.tree;
    fd = Fd.clone st.fd;
    phase =
      (match st.phase with
      | Idle -> Idle
      | Preparing p ->
          Preparing
            { pno = p.pno; yes = p.yes; no = p.no; best_prior = p.best_prior }
      | Proposing p ->
          Proposing { pno = p.pno; value = p.value; yes = p.yes; no = p.no });
    response_q =
      List.map (fun e -> { e with q_count = e.q_count }) st.response_q;
  }

let hooks = Some { Amac.Algorithm.fingerprint; fingerprint_msg = fp_msg; clone }

let make ?(leader_priority = true) ?(aggregate = true) ?quorum ?instrument
    ?(retransmit = true) () =
  (match quorum with
  | Some q when q < 1 -> invalid_arg "Wpaxos.make: quorum must be >= 1"
  | Some _ | None -> ());
  let cfg = { leader_priority; aggregate; quorum; instrument; retransmit } in
  {
    Amac.Algorithm.name =
      (if leader_priority && aggregate && retransmit then "wpaxos"
       else
         Printf.sprintf "wpaxos[prio=%b,agg=%b,rtx=%b]" leader_priority
           aggregate retransmit);
    init = init cfg;
    on_receive;
    on_ack;
    msg_ids;
    hooks;
  }
