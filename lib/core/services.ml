open Paxos_types

(* Hardening tunables. All counts are in the node's own acks (~F_ack each).
   The re-proposal timeout scales with n so a healthy high-diameter
   aggregation wave (Theta(D) acks) is never mistaken for loss. *)
let refresh_start = 4

let refresh_cap = 64

let patience_max = 512

let max_retries = 8

type 'b entry = { target : int; pno : pno; body : 'b }

type 'b t = {
  me : int;
  n : int;
  mutable omega : int;
  mutable leader_q : int option;
  mutable lamport : int;
  mutable last_change : int * int;
  mutable change_q : (int * int) option;
  tree : Tree.t;
  mutable response_q : 'b entry list;
  mutable sending : bool;
  (* hardening. The ack is the ONLY clock in this model: a node that stops
     broadcasting stops observing time and can never wake itself, so a
     node with work left keeps a heartbeat broadcast going — bounded by
     [patience_left] so that runs in which consensus is genuinely
     impossible (majority crashed) still quiesce. Heartbeat emission,
     silence accounting and the suspected set live in the ◇P detector. *)
  fd : Fd.t;
  mutable idle_acks : int;
  mutable next_refresh : int;
  mutable progress_silence : int;
  mutable next_retry : int;
  retry_start : int;
  retry_cap : int;
  mutable retries_left : int;
  mutable patience_left : int;
}

let create ~me ~n ~omega ~patience =
  let fd = Fd.create ~patience ~me () in
  if omega <> me then Fd.watch fd ~peer:omega;
  let retry_start = (2 * n) + 8 in
  {
    me;
    n;
    omega;
    leader_q = Some omega;
    lamport = 0;
    last_change = (-1, -1);
    change_q = None;
    tree = Tree.create ~me;
    response_q = [];
    sending = false;
    fd;
    idle_acks = 0;
    next_refresh = refresh_start;
    progress_silence = 0;
    next_retry = retry_start;
    retry_start;
    retry_cap = 16 * retry_start;
    retries_left = max_retries;
    patience_left = patience_max;
  }

let clone clone_body sv =
  {
    sv with
    tree = Tree.clone sv.tree;
    fd = Fd.clone sv.fd;
    response_q =
      List.map (fun e -> { e with body = clone_body e.body }) sv.response_q;
  }

(* Observable protocol progress refills the heartbeat budget: as long as
   state keeps advancing somewhere, hardened nodes keep knocking. Every
   refill site is a finite-progress event (distances only shrink, stamps
   only grow, one response per acceptor per proposition, re-proposals are
   budgeted), so total refills are finite and a stuck run still drains.
   Only a hardened tick drains the budget. *)
let refill sv = sv.patience_left <- patience_max

let progress sv =
  sv.progress_silence <- 0;
  refill sv

let open_epoch sv =
  sv.retries_left <- max_retries;
  sv.next_retry <- sv.retry_start

let rec conforms ~target ~pno = function
  | [] -> true
  | entry :: rest ->
      entry.target = target
      && compare_pno entry.pno pno = 0
      && conforms ~target ~pno rest

let prune sv =
  match sv.response_q with
  | [] -> ()
  | first :: _ when conforms ~target:sv.omega ~pno:first.pno sv.response_q ->
      ()
  | _ :: _ -> (
      match List.filter (fun e -> e.target = sv.omega) sv.response_q with
      | [] -> sv.response_q <- []
      | first :: _ as mine ->
          let best =
            List.fold_left
              (fun best e -> if pno_lt best e.pno then e.pno else best)
              first.pno mine
          in
          sv.response_q <- List.filter (fun e -> compare_pno e.pno best = 0) mine)

let rec absorbed merge ~target ~pno body = function
  | [] -> false
  | entry :: rest ->
      (entry.target = target
      && compare_pno entry.pno pno = 0
      && merge entry.body body)
      || absorbed merge ~target ~pno body rest

let enqueue sv ~merge ~target ~pno body =
  if not (absorbed merge ~target ~pno body sv.response_q) then
    sv.response_q <- sv.response_q @ [ { target; pno; body } ];
  prune sv

let rec pick sv emit skipped = function
  | [] -> None
  | entry :: rest -> (
      match Tree.parent sv.tree entry.target with
      | Some dest ->
          sv.response_q <- List.rev_append skipped rest;
          Some (emit dest entry)
      | None -> pick sv emit (entry :: skipped) rest)

let dequeue sv ~emit = pick sv emit [] sv.response_q

let elect sv id =
  sv.omega <- id;
  sv.leader_q <- Some id;
  prune sv;
  Fd.watch sv.fd ~peer:id;
  refill sv

let observe sv ~id ~hb =
  if id = sv.me then Fd.Stale
  else
    match Fd.observe sv.fd ~peer:id ~hb with
    | Stale -> Stale
    | verdict ->
        (* Relay the fresh heartbeat so it floods network-wide. A heartbeat
           past the suspicion point proves the candidate alive after all
           (e.g. a loss window ate its traffic). *)
        if id = sv.omega then sv.leader_q <- Some id;
        (match verdict with Fresh_cleared -> refill sv | Fresh | Stale -> ());
        verdict

let local_change sv =
  sv.lamport <- sv.lamport + 1;
  let stamp = (sv.lamport, sv.me) in
  sv.last_change <- stamp;
  sv.change_q <- Some stamp

let on_change sv ~counter ~origin =
  sv.lamport <- max sv.lamport counter;
  let last_counter, last_origin = sv.last_change in
  (counter > last_counter || (counter = last_counter && origin > last_origin))
  && begin
       let stamp = (counter, origin) in
       sv.last_change <- stamp;
       refill sv;
       sv.change_q <- Some stamp;
       true
     end

(* A change event (Alg 3) only for the distance to the CURRENT leader: the
   reading Lemma 4.5's GST argument needs (DESIGN.md deviation 2). Firing
   on every root's dist update would keep regenerating proposals while
   background trees refine, inflating decision latency from O(D*F_ack) to
   Theta(n*F_ack). *)
let on_search sv ~root ~hops ~sender =
  Tree.improve sv.tree ~root ~hops ~sender
  && begin
       refill sv;
       root = sv.omega
     end

let beat sv =
  sv.patience_left <- sv.patience_left - 1;
  if sv.omega = sv.me then begin
    ignore (Fd.beat sv.fd);
    false
  end
  else match Fd.tick sv.fd ~peer:sv.omega with Suspect -> true | Ok -> false

(* Setting [leader_q] unconditionally guarantees the next broadcast, i.e.
   the clock keeps ticking. Routes to the leader are re-advertised (the
   UpdateQ form of Alg 4) on an exponential backoff, so nodes that lost
   the search wave learn parent pointers and stuck unroutable responses
   get unstuck. *)
let refresh sv =
  sv.leader_q <- Some sv.omega;
  sv.idle_acks <- sv.idle_acks + 1;
  sv.idle_acks >= sv.next_refresh
  && begin
       sv.idle_acks <- 0;
       sv.next_refresh <- min (2 * sv.next_refresh) refresh_cap;
       Tree.readvertise sv.tree ~root:sv.omega;
       true
     end

let retry_due sv =
  sv.omega = sv.me && sv.retries_left > 0
  && begin
       sv.progress_silence <- sv.progress_silence + 1;
       sv.progress_silence >= sv.next_retry
       && begin
            sv.progress_silence <- 0;
            sv.next_retry <- min (2 * sv.next_retry) sv.retry_cap;
            sv.retries_left <- sv.retries_left - 1;
            true
          end
     end

let maybe_send sv compose st =
  if sv.sending then []
  else
    match compose st with
    | [] -> []
    | components ->
        sv.sending <- true;
        [ Amac.Algorithm.Broadcast components ]

let rec ranked rank (prev : int) = function
  | [] -> true
  | c :: rest ->
      let r = rank c in
      prev <= r && ranked rank r rest

let in_rank_order ~rank components =
  if ranked rank 0 components then components
  else List.sort (fun a b -> Int.compare (rank a) (rank b)) components

let rec sum_ids ids acc = function
  | [] -> acc
  | c :: rest -> sum_ids ids (acc + ids c) rest

let msg_ids ~ids components = sum_ids ids 0 components

module Instrument = struct
  (* Conservation accounting for Lemma 4.2, per proposition: the affirmative
     responses acceptors generate, and the counts proposers accumulate. The
     lemma says counted <= generated. *)
  type t = {
    generated : (pno * round, int) Hashtbl.t;
    counted : (pno * round, int) Hashtbl.t;
  }

  let create () = { generated = Hashtbl.create 64; counted = Hashtbl.create 64 }

  let bump tbl key amount =
    let current = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (current + amount)

  let violations t =
    Hashtbl.fold
      (fun ((pno, round) as key) counted acc ->
        let generated =
          Option.value ~default:0 (Hashtbl.find_opt t.generated key)
        in
        if counted > generated then (pno, round, generated, counted) :: acc
        else acc)
      t.counted []

  let max_tag t = Hashtbl.fold (fun (pno, _) _ acc -> max acc pno.tag) t.generated 0
end

type tally = { mutable votes : int; voters : (int, unit) Hashtbl.t option }

type phase =
  | Idle
  | Preparing of {
      pno : pno;
      yes : tally;
      no : tally;
      mutable best_prior : prior option;
    }
  | Proposing of { pno : pno; value : int; yes : tally; no : tally }

type paxos = {
  input : int;
  quorum : int;
  distinct : bool;
  instrument : Instrument.t option;
  mutable max_tag : int;
  mutable phase : phase;
  mutable attempts_left : int;
  mutable proposal_q : proposer_msg option;
  mutable best_proposal_seen : (pno * round) option;
  mutable promised : pno option;
  mutable accepted : prior option;
  mutable responded : (pno * round) option;
  mutable decision : int option;
  mutable announced : bool;
  mutable decide_q : int option;
}

let paxos ~input ~quorum ~distinct ~instrument =
  {
    input;
    quorum;
    distinct;
    instrument;
    max_tag = 0;
    phase = Idle;
    attempts_left = 1;
    proposal_q = None;
    best_proposal_seen = None;
    promised = None;
    accepted = None;
    responded = None;
    decision = None;
    announced = false;
    decide_q = None;
  }

let tally px =
  { votes = 0; voters = (if px.distinct then Some (Hashtbl.create 8) else None) }

let add tally ~responder ~count =
  match tally.voters with
  | None -> tally.votes <- tally.votes + count
  | Some ids ->
      if not (Hashtbl.mem ids responder) then begin
        Hashtbl.replace ids responder ();
        tally.votes <- tally.votes + 1
      end

(* Once this many acceptors rejected, yes can no longer reach a majority.
   (The paper says "a majority of the acceptors rejecting"; with even n a
   proposition can split n/2–n/2 and reach neither majority, so we fail at
   the exact can't-win point instead.) *)
let fail_threshold sv px = sv.n - px.quorum + 1

let decide px value =
  if px.decision = None then begin
    px.decision <- Some value;
    px.decide_q <- Some value;
    px.phase <- Idle
  end

let rec generate_proposal sv px =
  if px.decision = None && sv.omega = sv.me then begin
    px.max_tag <- px.max_tag + 1;
    let pno = { tag = px.max_tag; proposer = sv.me } in
    px.phase <- Preparing { pno; yes = tally px; no = tally px; best_prior = None };
    let message = Prepare pno in
    px.proposal_q <- Some message;
    px.best_proposal_seen <- Some (pno, Prepare_round);
    self_respond sv px message
  end

(* The change service's UpdateQ (Alg 3), once the stamp is queued: at the
   leader, generate a fresh proposal. A change notification opens a fresh
   leadership epoch, restoring the hardened re-proposal budget. *)
and updateq sv px =
  if sv.omega = sv.me && px.decision = None then begin
    px.attempts_left <- 1;
    open_epoch sv;
    generate_proposal sv px
  end

(* ONCHANGE (Alg 3): omega or a dist entry was updated locally. *)
and change sv px =
  local_change sv;
  updateq sv px

(* A proposition failed with a majority of rejections. The paper allows one
   immediate retry per change notification; past that we raise a fresh local
   change (documented deviation — see wpaxos.mli), which floods and resets
   the budget. Each retry sets the tag above every committed number learned,
   so the retry chain terminates. *)
and proposition_failed sv px =
  if sv.omega = sv.me && px.decision = None then begin
    if px.attempts_left > 0 then begin
      px.attempts_left <- px.attempts_left - 1;
      generate_proposal sv px
    end
    else change sv px
  end
  else px.phase <- Idle

and start_propose sv px ~pno ~best_prior =
  let value =
    match best_prior with Some prior -> prior.value | None -> px.input
  in
  px.phase <- Proposing { pno; value; yes = tally px; no = tally px };
  let message = Propose { pno; value } in
  px.proposal_q <- Some message;
  px.best_proposal_seen <- Some (pno, Propose_round);
  self_respond sv px message

and count sv px ~pno ~round ~positive ~prior ~committed ~count ~responder =
  match (px.phase, round) with
  | ( Preparing { pno = current; yes; no; _ }, Prepare_round
    | Proposing { pno = current; yes; no; _ }, Propose_round )
    when compare_pno current pno = 0 -> (
      progress sv;
      if positive then begin
        (match px.instrument with
        | Some t when count > 0 -> Instrument.bump t.counted (pno, round) count
        | Some _ | None -> ());
        add yes ~responder ~count;
        match px.phase with
        | Preparing p ->
            p.best_prior <- max_prior p.best_prior prior;
            if yes.votes >= px.quorum then
              start_propose sv px ~pno:p.pno ~best_prior:p.best_prior
        | Proposing p -> if yes.votes >= px.quorum then decide px p.value
        | Idle -> ()
      end
      else begin
        add no ~responder ~count;
        (match committed with
        | Some committed -> px.max_tag <- max px.max_tag committed.tag
        | None -> ());
        if no.votes >= fail_threshold sv px then proposition_failed sv px
      end)
  | (Idle | Preparing _ | Proposing _), _ -> ()

(* The proposer's own acceptor answers directly, skipping the queue. *)
and self_respond sv px message =
  let pno = pno_of_proposer_msg message in
  let round, positive, prior, committed = acceptor_respond px message in
  count sv px ~pno ~round ~positive ~prior ~committed ~count:1
    ~responder:sv.me

and acceptor_respond px message =
  let pno = pno_of_proposer_msg message in
  let ok = match px.promised with None -> true | Some p -> pno_le p pno in
  let round, positive, prior, committed =
    match message with
    | Prepare _ ->
        if ok then begin
          px.promised <- Some pno;
          (Prepare_round, true, px.accepted, None)
        end
        else (Prepare_round, false, None, px.promised)
    | Propose { value; _ } ->
        if ok then begin
          px.promised <- Some pno;
          px.accepted <- Some { pno; value };
          (Propose_round, true, None, None)
        end
        else (Propose_round, false, None, px.promised)
  in
  px.responded <- Some (pno, round);
  (match px.instrument with
  | Some t when positive -> Instrument.bump t.generated (pno, round) 1
  | Some _ | None -> ());
  (round, positive, prior, committed)

(* ONLEADERCHANGE: the proposer stands down, both PAXOS queues keep only
   current-leader content, and the update counts as a change event. *)
let set_omega sv px id =
  elect sv id;
  px.phase <- Idle;
  (match px.proposal_q with
  | Some p when (pno_of_proposer_msg p).proposer <> sv.omega ->
      px.proposal_q <- None
  | Some _ | None -> ());
  change sv px

let proposition_gt a b =
  match b with None -> true | Some b -> compare_proposition a b > 0

(* Flooding with the proposer-queue invariant: forward the first copy of
   each of the current leader's propositions, keeping only the largest.
   True when this acceptor has not answered the proposition yet. *)
let on_proposal sv px message =
  let pno = pno_of_proposer_msg message in
  px.max_tag <- max px.max_tag pno.tag;
  pno.proposer = sv.omega && pno.proposer <> sv.me
  && begin
       let round =
         match message with
         | Prepare _ -> Prepare_round
         | Propose _ -> Propose_round
       in
       if proposition_gt (pno, round) px.best_proposal_seen then begin
         px.best_proposal_seen <- Some (pno, round);
         px.proposal_q <- Some message;
         refill sv
       end;
       proposition_gt (pno, round) px.responded
     end

let finish sv px compose st =
  match px.decision with
  | Some v when not px.announced ->
      px.announced <- true;
      Amac.Algorithm.Decide v :: maybe_send sv compose st
  | Some _ | None -> maybe_send sv compose st

let clone_tally t = { t with voters = Option.map Hashtbl.copy t.voters }

let clone_paxos px =
  let phase =
    match px.phase with
    | Idle -> Idle
    | Preparing p ->
        Preparing { p with yes = clone_tally p.yes; no = clone_tally p.no }
    | Proposing p ->
        Proposing { p with yes = clone_tally p.yes; no = clone_tally p.no }
  in
  { px with phase }

module F = Amac.Fingerprint

let fp_pno ({ tag; proposer } : pno) acc = acc |> F.int tag |> F.int proposer

let fp_prior ({ pno; value } : prior) acc = acc |> fp_pno pno |> F.int value

let fp_round r acc =
  F.int (match r with Prepare_round -> 0 | Propose_round -> 1) acc

let fp_proposer_msg m acc =
  match m with
  | Prepare pno -> acc |> F.int 1 |> fp_pno pno
  | Propose { pno; value } -> acc |> F.int 2 |> fp_pno pno |> F.int value

let fp_pair (a, b) acc = acc |> F.int a |> F.int b

let fp_services sv acc =
  acc |> F.int sv.omega
  |> F.option F.int sv.leader_q
  |> F.int sv.lamport |> fp_pair sv.last_change
  |> F.option fp_pair sv.change_q

let fp_transport sv acc =
  acc |> F.bool sv.sending |> Fd.fingerprint sv.fd |> F.int sv.idle_acks
  |> F.int sv.next_refresh |> F.int sv.progress_silence |> F.int sv.next_retry
  |> F.int sv.retries_left |> F.int sv.patience_left

(* A flood-paxos tally folds its responders in sorted order, so insertion
   history cannot split logically equal states. *)
let fp_tally t acc =
  match t.voters with
  | None -> F.int t.votes acc
  | Some ids ->
      let ids = Hashtbl.fold (fun id () l -> id :: l) ids [] in
      F.list F.int (List.sort compare ids) acc

let fp_phase phase acc =
  match phase with
  | Idle -> F.int 0 acc
  | Preparing p ->
      acc |> F.int 1 |> fp_pno p.pno |> fp_tally p.yes |> fp_tally p.no
      |> F.option fp_prior p.best_prior
  | Proposing p ->
      acc |> F.int 2 |> fp_pno p.pno |> F.int p.value |> fp_tally p.yes
      |> fp_tally p.no

let fp_proposition (pno, round) acc = acc |> fp_pno pno |> fp_round round

let fp_paxos px acc =
  acc |> F.int px.max_tag |> fp_phase px.phase |> F.int px.attempts_left
  |> F.option fp_proposer_msg px.proposal_q
  |> F.option fp_proposition px.best_proposal_seen
  |> F.option fp_pno px.promised
  |> F.option fp_prior px.accepted
  |> F.option fp_proposition px.responded

let fp_decision px acc =
  acc |> F.option F.int px.decision |> F.bool px.announced
  |> F.option F.int px.decide_q
