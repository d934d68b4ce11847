open Consensus.Paxos_types
module Services = Consensus.Services

(* Multi-decree state-machine replication over the wPAXOS machinery: the
   services (leader election, change, tree building, the response queue,
   broadcast packing) and the hardened ack tick are [Consensus.Services],
   the same kit [Consensus.Wpaxos] runs on; the single proposer/acceptor
   pair is replaced by the standard multi-Paxos construction. One Prepare
   establishes a leader lease covering every instance from the leader's
   commit index up; while the lease holds, the leader streams per-instance
   Propose messages under the same proposal number, up to [window]
   instances beyond the commit index (instance pipelining). A value is
   chosen at an instance once a majority accepts it; the commit index is
   the length of the chosen prefix, and commands are applied to the state
   machine exactly once, in log order, skipping noops.

   Production-lifecycle layer (PR 7):
   - leader suspicion lives in the shared ◇P detector ([Fd]);
   - the log is compacted at a watermark: a snapshot of the applied state
     machine replaces the prefix below [snap_floor], and the snapshot is
     transferred to stragglers whose commit index lags the floor;
   - membership changes are decided through the log itself, joint-consensus
     style: a joint command opens a transition during which proposals need
     majorities of BOTH the old and the new configuration; the matching
     final command (auto-staged by every replica that applies the joint)
     closes it and bumps the epoch. *)

let noop = 0

(* Every per-node table is keyed by an instance, a command, a node id or a
   packed proposition key ([Prop_key]): a monomorphic table skips the
   polymorphic hash and compare. The hash is the identity below bit 30 and
   folds bits 30 and 40 (a packed key's proposer and tag, a
   reconfiguration command's uid and flags) onto the low bits. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k lxor (k lsr 30) lxor (k lsr 40)) land max_int
end)

(* --------------------------------------------------------------------- *)
(* Reconfiguration commands are ordinary log values with reserved bits:    *)
(* bits 0..29 carry the membership mask, bits 30..39 a uid (so repeated    *)
(* reconfigs to the same membership stay distinct values), bit 40 marks    *)
(* the joint (transition-opening) command and bit 41 the final             *)
(* (transition-closing) one.                                               *)
(* --------------------------------------------------------------------- *)

let joint_bit = 1 lsl 40

let final_bit = 1 lsl 41

let member_mask = 0x3FFFFFFF

let uid_shift = 30

let is_reconfig c = c land (joint_bit lor final_bit) <> 0

let is_joint_reconfig c = c land joint_bit <> 0

let reconfig_mask c = c land member_mask

let final_of_joint c = c land lnot joint_bit lor final_bit

let mask_of_list ms = List.fold_left (fun m i -> m lor (1 lsl i)) 0 ms

let list_of_mask m =
  List.filter (fun i -> m land (1 lsl i) <> 0) (List.init 30 Fun.id)

let reconfig_members c = list_of_mask (reconfig_mask c)

type proposer_msg =
  | Prepare of { pno : pno; from_inst : int }
  | Propose of { pno : pno; inst : int; value : int }

let pno_of = function Prepare { pno; _ } -> pno | Propose { pno; _ } -> pno

(* Key identifying one proposition for respond-once / forward-once dedup:
   (tag, proposer, -1) for the lease Prepare, (tag, proposer, inst) for a
   per-instance Propose, packed by [Prop_key]. *)
let prop_key = function
  | Prepare { pno; _ } ->
      Prop_key.pack ~tag:pno.tag ~proposer:pno.proposer ~inst:(-1)
  | Propose { pno; inst; _ } ->
      Prop_key.pack ~tag:pno.tag ~proposer:pno.proposer ~inst

type resp_round = Rprep | Racc of int

(* A (possibly tree-aggregated) acceptor response. Prepare responses carry
   the responders' accepted priors per instance — the constraint set the
   new lease holder must respect; Propose responses just count. [count]
   weighs votes in the current configuration, [count2] in the incoming one
   during a joint transition (0 outside transitions). [r_cfg] is the
   responder's configuration tag (members mask + shifted joint mask): a
   vote self-weighed under one configuration must only ever be counted
   against quorum denominators of the SAME configuration — a lagging
   pre-transition acceptor's weight-1 vote is meaningless to a
   post-transition leader, and counting it can assemble a "quorum" that no
   later prepare majority intersects. Responses are merged along the
   aggregation tree only within one tag; the proposer discards tags other
   than its own. *)
type response = {
  dest : int;
  target : int;
  r_pno : pno;
  round : resp_round;
  positive : bool;
  count : int;
  count2 : int;
  r_cfg : int;
  priors : (int * prior) list;
  committed : pno option;
}

type component =
  | Leader of { id : int; hb : int; commit : int; sender : int }
      (* [id]/[hb]: the heartbeat being carried (possibly a relay);
         [commit]/[sender]: the relaying node's own commit index, stamped at
         send time — the straggler-repair signal (see [on_leader]). *)
  | Change of { counter : int; origin : int }
  | Search of { root : int; hops : int; sender : int }
  | Forward of { cmd : int }  (* client command flooding *)
  | Snapshot of {
      floor : int;
      s_applied : int list;  (* applied prefix, oldest first *)
      s_configs : (int * int) list;  (* (index, cmd), oldest first *)
      s_members : int;  (* membership mask at the floor *)
      s_joint : int;  (* incoming-config mask mid-transition; 0 = none *)
      s_epoch : int;
    }
  | Proposal of proposer_msg
  | Response of response
  | Decision of { inst : int; value : int }

type msg = component list

(* Proposer lease: one Prepare covers all instances >= [from_inst]; the
   merged priors map constrains per-instance value choice once Ready. *)
type lease =
  | No_lease
  | Preparing of {
      pno : pno;
      from_inst : int;
      mutable yes : int;
      mutable no : int;
      mutable yes2 : int;
      mutable no2 : int;
      priors : prior Itbl.t;
    }
  | Ready of { pno : pno; priors : prior Itbl.t }

type flight = {
  f_value : int;
  mutable f_yes : int;
  mutable f_no : int;
  mutable f_yes2 : int;
  mutable f_no2 : int;
}

type inst = { mutable accepted : prior option; mutable chosen : int option }

(* The payload of a queued acceptor response. *)
type pending_response = {
  q_round : resp_round;
  q_positive : bool;
  q_cfg : int;
  mutable q_count : int;
  mutable q_count2 : int;
  mutable q_priors : (int * prior) list;
  mutable q_committed : pno option;
}

type config = {
  window : int;
  on_apply : (node:int -> index:int -> cmd:int -> unit) option;
  on_suspect : (node:int -> suspect:int -> unit) option;
  patience : int option;
  compact_every : int option;
  repair_retries : int;
  members : int list option;
  clock : int ref option;
      (* the engine's clock cell, when the harness wants latency breakdowns *)
  propose_times : int Itbl.t;
      (* cmd -> time of its first Propose anywhere (shared with the handle);
         splits commit latency into queueing (submit -> first propose) and
         replication (first propose -> commit) *)
}

type state = {
  sv : pending_response Services.t;
  cfg : config;
  (* the log *)
  insts : inst Itbl.t;
  mutable commit_index : int;  (* length of the chosen prefix *)
  mutable max_inst_seen : int;  (* 1 + highest instance heard of *)
  mutable applied : int list;  (* applied commands, newest first *)
  applied_set : unit Itbl.t;
  (* membership (joint consensus) *)
  mutable members : int list;  (* current voters, sorted *)
  mutable joint : int list option;  (* incoming voters mid-transition *)
  mutable epoch : int;  (* completed reconfigurations *)
  mutable configs : (int * int) list;  (* (index, cmd), newest first *)
  mutable pending_joints : int list;
      (* joints superseded by an already-open transition, re-minted with a
         fresh uid, awaiting re-proposal once the transition closes; FIFO *)
  register_reconfig : int -> unit;
      (* registers a replica-minted (salvaged) reconfiguration command on
         the shared handle, so checker validity and injectors accept it *)
  (* compaction *)
  mutable snap_floor : int;  (* log truncated below this index *)
  mutable snap_applied : int list;  (* applied prefix at floor, newest 1st *)
  mutable snap_configs : (int * int) list;  (* configs at floor, newest 1st *)
  mutable snap_members : int list;
  mutable snap_joint : int list option;
  mutable snap_epoch : int;
  mutable snap_q : bool;  (* a snapshot transfer is queued *)
  (* client commands *)
  known_cmds : unit Itbl.t;
  cmd_pool : int Queue.t;
      (* submitted commands, FIFO; an entry is live iff it is not in
         [chosen_cmds], and the head is always live (see [drop_chosen]) *)
  chosen_cmds : unit Itbl.t;
  mutable forward_q : int list;
  (* proposer *)
  mutable max_tag : int;
  mutable lease : lease;
  mutable attempts_left : int;
  proposing : flight Itbl.t;  (* instance -> in-flight proposal *)
  mutable proposal_q : proposer_msg list;
  seen_props : unit Itbl.t;  (* forward-once *)
  (* acceptor *)
  mutable promised : pno option;
  vote_floor : int;
      (* Recovery safety watermark. Crash-recovery is amnesiac for the log
         and the per-instance acceptor slots, but a recovered incarnation
         that re-votes on an instance its predecessor may already have
         voted in breaks quorum intersection (two choosing quorums can
         pivot on the two incarnations of the same node and choose
         different values). A fresh incarnation therefore inherits the
         minimal durable footprint — [promised], [max_tag] and this floor,
         the previous incarnation's log end — and abstains from every
         acceptor action until its chosen prefix covers the floor. From
         then on all instances below the floor are decided (reported to
         prepares as unbeatable chosen priors) and all instances at or
         above it are ones no earlier incarnation ever voted in, so normal
         participation is sound. This mirrors the watermark Raft persists
         (term + vote) without persisting the log itself. *)
  responded : unit Itbl.t;  (* respond-once *)
  (* decision flooding *)
  decide_q : (int * int) Queue.t;  (* (inst, value), FIFO *)
  decide_set : int Itbl.t;
      (* instance -> its entries in [decide_q]: a node only ever queues its
         own chosen value for an instance *)
  (* responder-side straggler-repair retry (a single lost repair message
     must not stall a restarter forever; see [on_leader]) *)
  mutable repair_node : int;  (* the straggler the hole belongs to; -1 = none *)
  mutable repair_hole : int;  (* lowest lagging commit heard; -1 = none *)
  mutable repair_left : int;  (* retry budget for the current hole *)
  mutable repair_wait : int;
  mutable repair_next : int;
  (* lifecycle counters (observability; not protocol state) *)
  mutable fd_suspicions : int;
  mutable snapshots_taken : int;
  mutable snapshots_installed : int;
  mutable reconfigs_superseded : int;
}

(* ------------------------------------------------------------------ *)
(* Quorums: a majority of the current configuration, AND — during a    *)
(* joint transition — a majority of the incoming one.                  *)
(* ------------------------------------------------------------------ *)

let maj k = (k / 2) + 1

let is_voter st id =
  List.mem id st.members
  || (match st.joint with Some t -> List.mem id t | None -> false)

(* This node's vote weight in the current / incoming configuration. *)
let weight1 st = if List.mem st.sv.me st.members then 1 else 0

let weight2 st =
  match st.joint with
  | Some t -> if List.mem st.sv.me t then 1 else 0
  | None -> 0

(* The configuration a vote was weighed under, packed into one int: the
   members mask in the low 30 bits, the joint (incoming) mask — 0 outside a
   transition — in the next 30. A proposer only counts votes carrying its
   own tag (see [count_response]). *)
let cfg_tag st =
  mask_of_list st.members
  lor ((match st.joint with Some t -> mask_of_list t | None -> 0)
      lsl 30)

(* Whether this incarnation may act as an acceptor yet (see [vote_floor]).
   Abstention is indistinguishable from a crashed voter: safe, and live as
   long as the rest of the configuration can still assemble quorums. *)
let can_vote st = st.commit_index >= st.vote_floor

let quorum_reached st y1 y2 =
  y1 >= maj (List.length st.members)
  && match st.joint with None -> true | Some t -> y2 >= maj (List.length t)

(* Once this many voters of either group rejected, yes can no longer reach
   the corresponding majority. *)
let lost_in k n = n >= k - maj k + 1

let quorum_lost st n1 n2 =
  lost_in (List.length st.members) n1
  || match st.joint with None -> false | Some t -> lost_in (List.length t) n2

let get_inst st i =
  match Itbl.find_opt st.insts i with
  | Some r -> r
  | None ->
      let r = { accepted = None; chosen = None } in
      Itbl.replace st.insts i r;
      r

let note_inst st i =
  if i + 1 > st.max_inst_seen then st.max_inst_seen <- i + 1

let push_decision st ((i, _) as d) =
  Queue.push d st.decide_q;
  Itbl.replace st.decide_set i
    (1 + Option.value ~default:0 (Itbl.find_opt st.decide_set i))

let pop_decision st =
  let d = Queue.take_opt st.decide_q in
  (match d with
  | Some (i, _) -> (
      match Itbl.find st.decide_set i with
      | 1 -> Itbl.remove st.decide_set i
      | k -> Itbl.replace st.decide_set i (k - 1))
  | None -> ());
  d

(* Lazy deletion: a pooled command dies when it enters [chosen_cmds], and
   every place that grows [chosen_cmds] calls this, so the head of the pool
   is always live. *)
let rec drop_chosen st =
  match Queue.peek_opt st.cmd_pool with
  | Some c when Itbl.mem st.chosen_cmds c ->
      ignore (Queue.pop st.cmd_pool);
      drop_chosen st
  | Some _ | None -> ()

(* A node is complete when its chosen prefix covers everything it has heard
   of, no command it holds is still waiting for a slot, and no repair or
   snapshot transfer is pending. Complete nodes stop heartbeating (the
   network quiesces); incomplete ones keep the ack-clock ticking,
   patience-bounded. *)
let has_work st =
  st.commit_index < st.max_inst_seen
  || not (Queue.is_empty st.cmd_pool)
  || st.snap_q
  || (st.repair_hole >= 0 && st.repair_left > 0)
  || (st.sv.omega = st.sv.me
     && (Itbl.length st.proposing > 0
        || match st.lease with Preparing _ -> true | _ -> false))

(* ------------------------------------------------------------------ *)
(* Broadcast service: pack one component per non-empty queue.          *)
(* ------------------------------------------------------------------ *)

let response dest (e : pending_response Services.entry) =
  let q = e.body in
  Response
    {
      dest;
      target = e.target;
      r_pno = e.pno;
      round = q.q_round;
      positive = q.q_positive;
      count = q.q_count;
      count2 = q.q_count2;
      r_cfg = q.q_cfg;
      priors = q.q_priors;
      committed = q.q_committed;
    }

let compose st =
  let components = ref [] in
  (match pop_decision st with
  | Some (inst, value) -> components := Decision { inst; value } :: !components
  | None -> ());
  (if st.snap_q && st.snap_floor > 0 then begin
     st.snap_q <- false;
     components :=
       Snapshot
         {
           floor = st.snap_floor;
           s_applied = List.rev st.snap_applied;
           s_configs = List.rev st.snap_configs;
           s_members = mask_of_list st.snap_members;
           s_joint =
             (match st.snap_joint with
             | Some t -> mask_of_list t
             | None -> 0);
           s_epoch = st.snap_epoch;
         }
       :: !components
   end
   else st.snap_q <- false);
  (match Services.dequeue st.sv ~emit:response with
  | Some c -> components := c :: !components
  | None -> ());
  (match st.proposal_q with
  | p :: rest ->
      st.proposal_q <- rest;
      components := Proposal p :: !components
  | [] -> ());
  (match st.forward_q with
  | cmd :: rest ->
      st.forward_q <- rest;
      components := Forward { cmd } :: !components
  | [] -> ());
  (match Consensus.Tree.pop st.sv.tree ~prefer:(Some st.sv.omega) with
  | Some (root, hops) ->
      components := Search { root; hops; sender = st.sv.me } :: !components
  | None -> ());
  (match st.sv.change_q with
  | Some (counter, origin) ->
      st.sv.change_q <- None;
      components := Change { counter; origin } :: !components
  | None -> ());
  (match st.sv.leader_q with
  | Some id ->
      st.sv.leader_q <- None;
      (* Heartbeat and commit index are read at send time: relays carry
         the freshest count they know, and [commit] always describes the
         sender itself (the straggler-repair signal). *)
      components :=
        Leader
          { id; hb = Fd.hb st.sv.fd id; commit = st.commit_index; sender = st.sv.me }
        :: !components
  | None -> ());
  !components

let maybe_send st = Services.maybe_send st.sv compose st

(* ------------------------------------------------------------------ *)
(* Response queue plumbing                                             *)
(* ------------------------------------------------------------------ *)

let merge_priors existing extra =
  List.fold_left
    (fun acc (i, prior) ->
      let rec upd = function
        | [] -> [ (i, prior) ]
        | (j, p) :: rest when j = i -> (
            match max_prior (Some p) (Some prior) with
            | Some best -> (j, best) :: rest
            | None -> (j, p) :: rest)
        | entry :: rest -> entry :: upd rest
      in
      upd acc)
    existing extra

(* Votes self-weighed under different configurations must never be summed
   — the tag equality keeps each aggregate homogeneous. *)
let aggregate into q =
  into.q_round = q.q_round
  && into.q_positive = q.q_positive
  && into.q_cfg = q.q_cfg
  && begin
       into.q_count <- into.q_count + q.q_count;
       into.q_count2 <- into.q_count2 + q.q_count2;
       into.q_priors <- merge_priors into.q_priors q.q_priors;
       into.q_committed <- max_committed into.q_committed q.q_committed;
       true
     end

let enqueue_response st ~target ~pno q =
  Services.enqueue st.sv ~merge:aggregate ~target ~pno q

(* Acceptor: a single lease-wide promise (multi-Paxos), per-instance
   accepted values. Prepare responses return every accepted prior at or
   above the requested instance — the new leader's constraint set. A
   proposition reaching below our compaction floor cannot be answered
   soundly (the priors are gone): reject it and queue a snapshot transfer
   so the lagging proposer catches up instead. *)
let acceptor_respond st (message : proposer_msg) =
  let pno = pno_of message in
  let ok = match st.promised with None -> true | Some p -> pno_le p pno in
  match message with
  | Prepare { from_inst; _ } ->
      if from_inst < st.snap_floor then begin
        st.snap_q <- true;
        (Rprep, false, [], st.promised)
      end
      else if ok then begin
        st.promised <- Some pno;
        (* Every accepted or chosen record sits below [max_inst_seen]
           ([note_inst] runs wherever one is set), so walking down from
           there builds the priors in instance order. *)
        let rec collect i acc =
          if i < from_inst then acc
          else
            let acc =
              match Itbl.find_opt st.insts i with
              | Some { chosen = Some value; _ } ->
                  (* A value we know is CHOSEN — possibly learned via a
                     repair decision, with no accepted record behind it
                     (amnesiac restart) — is an unbeatable constraint.
                     Report it with a top-ranked ballot so no new lease
                     can steer the instance to a noop over our head. *)
                  (i, { pno = { tag = max_int; proposer = 0 }; value }) :: acc
              | Some { chosen = None; accepted = Some prior } ->
                  (i, prior) :: acc
              | Some { chosen = None; accepted = None } | None -> acc
            in
            collect (i - 1) acc
        in
        (Rprep, true, collect (st.max_inst_seen - 1) [], None)
      end
      else (Rprep, false, [], st.promised)
  | Propose { inst; value; _ } ->
      if inst < st.snap_floor then begin
        st.snap_q <- true;
        (Racc inst, false, [], st.promised)
      end
      else begin
        note_inst st inst;
        if ok then begin
          st.promised <- Some pno;
          (get_inst st inst).accepted <- Some { pno; value };
          (Racc inst, true, [], None)
        end
        else (Racc inst, false, [], st.promised)
      end

(* ------------------------------------------------------------------ *)
(* The log: choosing, committing, applying, compacting, reconfiguring  *)
(* ------------------------------------------------------------------ *)

(* How many joints in a committed configuration history were superseded
   (committed while another transition was already open), mirroring
   [apply_reconfig]'s transition state machine. Every replica evaluates
   this over the same committed prefix, so the count — and the salvage uid
   minted from it — is identical cluster-wide. *)
let superseded_seq configs =
  let ordered = List.sort (fun (a, _) (b, _) -> Int.compare a b) configs in
  List.fold_left
    (fun (open_, n) (_, c) ->
      if is_joint_reconfig c then
        match open_ with
        | None -> (Some (reconfig_mask c), n)
        | Some _ -> (open_, n + 1)
      else
        match open_ with
        | Some m when m = reconfig_mask c -> (None, n)
        | Some _ | None -> (open_, n))
    (None, 0) ordered
  |> snd

(* Salvaged joints re-mint the superseded membership under a fresh uid,
   counted down from the top of the 10-bit uid space so replica-minted
   commands cannot collide with handle-allocated ones (which count up). *)
let salvage_uid seq = 1023 - (seq - 1)

(* Drop the log below [floor]. Nothing below the current floor survives an
   earlier truncation ([get_inst] is never called below it), so only the
   instances in between are removed. *)
let truncate st floor =
  for i = st.snap_floor to floor - 1 do
    Itbl.remove st.insts i
  done;
  st.snap_floor <- floor

let rec advance_commit st =
  let continue = ref true in
  while !continue do
    match Itbl.find_opt st.insts st.commit_index with
    | Some { chosen = Some value; _ } ->
        let index = st.commit_index in
        st.commit_index <- st.commit_index + 1;
        if is_reconfig value then apply_reconfig st ~index ~value
        else if value <> noop && not (Itbl.mem st.applied_set value)
        then begin
          Itbl.replace st.applied_set value ();
          st.applied <- value :: st.applied;
          match st.cfg.on_apply with
          | Some f -> f ~node:st.sv.me ~index ~cmd:value
          | None -> ()
        end
    | Some { chosen = None; _ } | None -> continue := false
  done;
  maybe_compact st

(* A reconfiguration command reached the committed prefix. Joint: open the
   transition (dual quorums from here on) and stage the matching final
   command — at EVERY replica, so the transition completes even if the
   leader that proposed the joint dies. Final: adopt the new configuration
   and bump the epoch. Both restart the leader's lease, because the quorum
   rule its in-flight counts were accumulated under just changed. *)
and apply_reconfig st ~index ~value =
  st.configs <- (index, value) :: st.configs;
  let changed =
    if is_joint_reconfig value then (
      match st.joint with
      | None ->
          st.joint <- Some (reconfig_members value);
          absorb_cmd st (final_of_joint value);
          true
      | Some _ ->
          (* A second joint committed while a transition is already open
             (a racing stale-view leader got it chosen): it cannot open
             now, but the requested membership change must not be silently
             dropped — its command value is spent (chosen at this
             instance), so re-mint it under a fresh deterministic uid and
             queue it for re-proposal once the open transition closes. *)
          st.reconfigs_superseded <- st.reconfigs_superseded + 1;
          let uid = salvage_uid (superseded_seq st.configs) in
          if uid >= 0 then begin
            let jc =
              reconfig_mask value lor (uid lsl uid_shift) lor joint_bit
            in
            st.register_reconfig jc;
            st.pending_joints <- st.pending_joints @ [ jc ]
          end;
          false)
    else
      match st.joint with
      | Some t when mask_of_list t = reconfig_mask value ->
          st.members <- t;
          st.joint <- None;
          st.epoch <- st.epoch + 1;
          recompute_omega st;
          true
      | Some _ | None ->
          (* the transition this final closes was completed already (a
             salvaged duplicate) — or never seen; adopt monotonically *)
          if st.joint = None && st.members <> reconfig_members value then begin
            st.members <- reconfig_members value;
            st.epoch <- st.epoch + 1;
            recompute_omega st;
            true
          end
          else false
  in
  if changed && st.sv.omega = st.sv.me then start_prepare st;
  if changed then flush_pending_joints st

(* A transition just closed: resurrect the oldest salvaged joint whose
   membership is still news. (Queued at every replica that applied the
   superseded joint — the same value everywhere, so flooding dedups.) *)
and flush_pending_joints st =
  match st.pending_joints with
  | jc :: rest when st.joint = None ->
      st.pending_joints <- rest;
      if reconfig_mask jc <> mask_of_list st.members then absorb_cmd st jc
      else flush_pending_joints st
  | _ :: _ | [] -> ()

and maybe_compact st =
  match st.cfg.compact_every with
  | Some k when st.commit_index - st.snap_floor >= k ->
      (* Snapshot the applied state machine at the commit watermark and
         drop the log prefix it covers. Everything an installer needs to
         take over from here travels with the snapshot: the applied
         prefix, the configuration history, and the membership/epoch. *)
      truncate st st.commit_index;
      st.snap_applied <- st.applied;
      st.snap_configs <- st.configs;
      st.snap_members <- st.members;
      st.snap_joint <- st.joint;
      st.snap_epoch <- st.epoch;
      st.snapshots_taken <- st.snapshots_taken + 1
  | Some _ | None -> ()

and note_chosen st i value =
  if i >= st.snap_floor then
    let r = get_inst st i in
    match r.chosen with
    | Some _ -> ()  (* first choice wins locally; cross-node agreement is
                       the checker's business *)
    | None ->
        r.chosen <- Some value;
        note_inst st i;
        if value <> noop then Itbl.replace st.chosen_cmds value ();
        drop_chosen st;
        (* Flood the decision exactly once per node. *)
        push_decision st (i, value);
        Services.refill st.sv;
        advance_commit st;
        if st.sv.omega = st.sv.me then fill_window st

(* A snapshot from a peer whose floor is ahead of our commit index: adopt
   it wholesale. The applied prefix replaces ours (the commands it covers
   are NOT replayed through on_apply — the snapshot IS the applied state),
   the log below the floor is dropped, and the leader re-prepares from the
   new commit index. *)
and install_snapshot st ~floor ~s_applied ~s_configs ~s_members ~s_joint
    ~s_epoch =
  if floor > st.commit_index then begin
    let applied_new = List.rev s_applied in
    truncate st floor;
    st.snap_applied <- applied_new;
    st.snap_configs <- List.rev s_configs;
    st.snap_members <- s_members;
    st.snap_joint <- s_joint;
    st.snap_epoch <- s_epoch;
    st.applied <- applied_new;
    Itbl.reset st.applied_set;
    List.iter (fun c -> Itbl.replace st.applied_set c ()) applied_new;
    st.configs <- st.snap_configs;
    st.members <- s_members;
    st.joint <- s_joint;
    st.epoch <- s_epoch;
    st.commit_index <- floor;
    note_inst st (floor - 1);
    (* Commands the snapshot proves chosen must not be proposed again. *)
    List.iter
      (fun c ->
        Itbl.replace st.chosen_cmds c ();
        Itbl.replace st.known_cmds c ())
      applied_new;
    List.iter
      (fun (_, c) ->
        Itbl.replace st.chosen_cmds c ();
        Itbl.replace st.known_cmds c ())
      st.snap_configs;
    drop_chosen st;
    (* Mid-transition snapshot: stage the closing final command here too. *)
    (match st.joint with
    | Some _ -> (
        match List.find_opt (fun (_, c) -> is_joint_reconfig c) st.configs with
        | Some (_, jc) -> absorb_cmd st (final_of_joint jc)
        | None -> ())
    | None -> ());
    st.lease <- No_lease;
    Itbl.reset st.proposing;
    st.snapshots_installed <- st.snapshots_installed + 1;
    Services.refill st.sv;
    advance_commit st;
    recompute_omega st;
    if st.sv.omega = st.sv.me then start_prepare st;
    flush_pending_joints st
  end

(* ------------------------------------------------------------------ *)
(* Proposer: lease acquisition and window filling                      *)
(* ------------------------------------------------------------------ *)

and start_prepare st =
  if st.sv.omega = st.sv.me then begin
    st.max_tag <- st.max_tag + 1;
    let pno = { tag = st.max_tag; proposer = st.sv.me } in
    let from_inst = st.commit_index in
    Itbl.reset st.proposing;
    st.lease <-
      Preparing
        {
          pno;
          from_inst;
          yes = 0;
          no = 0;
          yes2 = 0;
          no2 = 0;
          priors = Itbl.create 8;
        };
    let message = Prepare { pno; from_inst } in
    st.proposal_q <- st.proposal_q @ [ message ];
    Itbl.replace st.seen_props (prop_key message) ();
    self_respond st message
  end

(* The next command this leader should put at the log end: the first pooled
   command not already chosen and not in flight at another instance.
   Reconfiguration commands are serialised: a joint only proposes outside a
   transition, a final only for the transition it closes. *)
and pick_cmd st =
  let inflight value =
    Itbl.fold
      (fun _ f acc -> acc || f.f_value = value)
      st.proposing false
  in
  let eligible c =
    (not (Itbl.mem st.chosen_cmds c))
    && (not (inflight c))
    &&
    if is_joint_reconfig c then st.joint = None
    else if is_reconfig c then
      match st.joint with
      | Some t -> reconfig_mask c = mask_of_list t
      | None -> false
    else true
  in
  Seq.find eligible (Queue.to_seq st.cmd_pool)

and choose_value st priors i =
  match Itbl.find_opt priors i with
  | Some prior -> Some prior.value  (* bound by an earlier proposal *)
  | None ->
      if i < st.max_inst_seen then Some noop  (* fill a hole below the end *)
      else pick_cmd st

and fill_window st =
  match st.lease with
  | Ready { pno; priors } when st.sv.omega = st.sv.me ->
      let upper = st.commit_index + st.cfg.window in
      let i = ref st.commit_index in
      let stalled = ref false in
      while (not !stalled) && !i < upper do
        let inst = !i in
        let r = get_inst st inst in
        (if r.chosen = None && not (Itbl.mem st.proposing inst) then
           match choose_value st priors inst with
           | Some value ->
               Itbl.replace st.proposing inst
                 { f_value = value; f_yes = 0; f_no = 0; f_yes2 = 0; f_no2 = 0 };
               note_inst st inst;
               (match st.cfg.clock with
               | Some clk
                 when value > noop
                      && (not (is_reconfig value))
                      && not (Itbl.mem st.cfg.propose_times value) ->
                   Itbl.replace st.cfg.propose_times value !clk
               | Some _ | None -> ());
               let message = Propose { pno; inst; value } in
               st.proposal_q <- st.proposal_q @ [ message ];
               Itbl.replace st.seen_props (prop_key message) ();
               self_respond st message
           | None -> stalled := true);
        incr i
      done
  | Ready _ | Preparing _ | No_lease -> ()

and lease_failed st =
  st.lease <- No_lease;
  Itbl.reset st.proposing;
  if st.sv.omega = st.sv.me then begin
    if st.attempts_left > 0 then begin
      st.attempts_left <- st.attempts_left - 1;
      start_prepare st
    end
    else local_change st
  end

(* The change service's UpdateQ (Alg 3), once the stamp is queued. *)
and change_updateq st =
  if st.sv.omega = st.sv.me then begin
    st.attempts_left <- 1;
    Services.open_epoch st.sv;
    match st.lease with
    | No_lease -> start_prepare st
    | Ready _ -> fill_window st
    | Preparing _ -> ()
  end

and local_change st =
  Services.local_change st.sv;
  change_updateq st

and count_response st (r : response) =
  (* Only votes weighed under THIS proposer's exact configuration count:
     the yes/no tallies are checked against our members/joint denominators
     ([quorum_reached]/[quorum_lost]), and a leader restarts its lease
     whenever its configuration changes, so every counted vote and the
     quorum rule agree on what a majority means. A mismatched tag is a
     lagging (or leading) replica's vote — discard it; the retry schedule
     re-solicits once the straggler catches up via decisions/snapshots. *)
  if r.r_cfg = cfg_tag st then
  match (st.lease, r.round) with
  | Preparing p, Rprep when compare_pno p.pno r.r_pno = 0 ->
      Services.progress st.sv;
      if r.positive then begin
        p.yes <- p.yes + r.count;
        p.yes2 <- p.yes2 + r.count2;
        List.iter
          (fun (i, prior) ->
            note_inst st i;
            let best =
              max_prior (Itbl.find_opt p.priors i) (Some prior)
            in
            match best with
            | Some best -> Itbl.replace p.priors i best
            | None -> ())
          r.priors;
        if quorum_reached st p.yes p.yes2 then begin
          st.lease <- Ready { pno = p.pno; priors = p.priors };
          fill_window st
        end
      end
      else begin
        p.no <- p.no + r.count;
        p.no2 <- p.no2 + r.count2;
        (match r.committed with
        | Some committed -> st.max_tag <- max st.max_tag committed.tag
        | None -> ());
        if quorum_lost st p.no p.no2 then lease_failed st
      end
  | Ready rd, Racc inst when compare_pno rd.pno r.r_pno = 0 -> (
      match Itbl.find_opt st.proposing inst with
      | Some f ->
          Services.progress st.sv;
          if r.positive then begin
            f.f_yes <- f.f_yes + r.count;
            f.f_yes2 <- f.f_yes2 + r.count2;
            if quorum_reached st f.f_yes f.f_yes2 then begin
              Itbl.remove st.proposing inst;
              note_chosen st inst f.f_value
            end
          end
          else begin
            f.f_no <- f.f_no + r.count;
            f.f_no2 <- f.f_no2 + r.count2;
            if quorum_lost st f.f_no f.f_no2 then lease_failed st
          end
      | None -> ())
  | (No_lease | Preparing _ | Ready _), _ -> ()

and self_respond st (message : proposer_msg) =
  (* A recovering leader below its vote floor casts no self-vote (its own
     acceptor is muted); it can still assemble quorums from its peers. *)
  if can_vote st then begin
    let pno = pno_of message in
    Itbl.replace st.responded (prop_key message) ();
    let round, positive, priors, committed = acceptor_respond st message in
    count_response st
      {
        dest = st.sv.me;
        target = st.sv.me;
        r_pno = pno;
        round;
        positive;
        count = weight1 st;
        count2 = weight2 st;
        r_cfg = cfg_tag st;
        priors;
        committed;
      }
  end

(* ------------------------------------------------------------------ *)
(* Client commands                                                     *)
(* ------------------------------------------------------------------ *)

(* First sight of a command: remember it, queue it for the leader, and
   re-flood it once so it reaches the leader in multihop networks.
   Reconfiguration commands travel the same path. *)
and absorb_cmd st cmd =
  if cmd <> noop && not (Itbl.mem st.known_cmds cmd) then begin
    Itbl.replace st.known_cmds cmd ();
    if not (Itbl.mem st.chosen_cmds cmd) then begin
      Queue.push cmd st.cmd_pool;
      Services.refill st.sv;
      if st.sv.omega = st.sv.me then
        match st.lease with
        | Ready _ -> fill_window st
        | No_lease -> start_prepare st
        | Preparing _ -> ()
    end;
    st.forward_q <- st.forward_q @ [ cmd ]
  end

(* ------------------------------------------------------------------ *)
(* Leader election (member-aware)                                      *)
(* ------------------------------------------------------------------ *)

and set_omega st id =
  Services.elect st.sv id;
  st.lease <- No_lease;
  Itbl.reset st.proposing;
  st.proposal_q <-
    List.filter (fun p -> (pno_of p).proposer = st.sv.omega) st.proposal_q;
  local_change st

(* Best unsuspected VOTER among the ids we have heard from; non-voters
   (fresh learners awaiting a scale-up, removed replicas) never lead. The
   fold starts from an ineligible sentinel, NOT [st.sv.me]: a learner whose
   id exceeds every voter must not elect itself the moment all voters look
   suspect (it would heartbeat and re-prepare as a phantom leader until
   promoted). With no eligible candidate at all, keep the current omega if
   it is still a voter, else fall back to the smallest voter. *)
and candidate_omega st =
  let next =
    Fd.candidate st.sv.fd ~base:(-1) ~eligible:(fun id -> is_voter st id)
  in
  if next >= 0 then next
  else if is_voter st st.sv.omega && not (Fd.suspected st.sv.fd st.sv.omega) then st.sv.omega
  else
    match List.find_opt (fun m -> not (Fd.suspected st.sv.fd m)) st.members with
    | Some m -> m
    | None -> st.sv.omega

and recompute_omega st =
  let next = candidate_omega st in
  if next <> st.sv.omega then set_omega st next

(* Answer a straggling neighbor: the decision at its first hole — or, if
   that instance fell below our compaction floor, the snapshot itself. *)
let queue_repair st ~lag_commit =
  if lag_commit < st.commit_index then
    if lag_commit < st.snap_floor then st.snap_q <- true
    else
      match Itbl.find_opt st.insts lag_commit with
      | Some { chosen = Some value; _ } ->
          if not (Itbl.mem st.decide_set lag_commit) then
            push_decision st (lag_commit, value)
      | Some { chosen = None; _ } | None -> ()

let clear_repair st =
  st.repair_node <- -1;
  st.repair_hole <- -1;
  st.repair_left <- 0;
  st.repair_wait <- 0

let on_leader st ~id ~hb ~commit ~sender =
  (match Services.observe st.sv ~id ~hb with
  | Fresh_cleared -> recompute_omega st
  | Fresh ->
      (* A live heartbeat while omega points outside the voter set (every
         candidate looked suspect when we last recomputed): re-run the
         election so an eligible leader is re-adopted. *)
      if not (is_voter st st.sv.omega) then recompute_omega st
  | Stale -> ());
  if id > st.sv.omega && is_voter st id && not (Fd.suspected st.sv.fd id) then
    set_omega st id;
  (* Straggler repair: the sending neighbor's commit index lags ours, so
     its first hole is an instance we have chosen — answer with that one
     decision (or the snapshot, if the hole was compacted away). One
     repair per heartbeat heard, PLUS a bounded retry schedule: repair
     answers ride the lossy channel like everything else, and a straggler
     that has nothing left to say goes silent — if its recovery broadcast
     is the last we hear and our answer is lost, no later heartbeat would
     retrigger repair and the straggler stalls forever. The retry budget
     resets whenever the straggler's commit moves (progress), so the
     schedule is message-bounded — and it stops the moment the straggler
     itself announces a caught-up commit index (the repair slot tracks
     whose hole it is; an announcement from a DIFFERENT caught-up node
     says nothing about the straggler and must not cancel its repair). *)
  (* An announced commit index c is proof that instances 0..c-1 are chosen
     somewhere: count them as heard-of. This is what keeps a silently
     recovering straggler in the echo loop — hearing a fresh announcement
     ahead of its own commit re-opens [has_work], so it keeps broadcasting
     (and thereby announcing its lagging commit) until fully repaired,
     instead of going quiet the moment its local decisions run out. *)
  if commit > st.max_inst_seen then st.max_inst_seen <- commit;
  if sender <> st.sv.me then
    if commit < st.commit_index then begin
      queue_repair st ~lag_commit:commit;
      if st.repair_node <> sender || st.repair_hole <> commit then begin
        st.repair_node <- sender;
        st.repair_hole <- commit;
        st.repair_left <- st.cfg.repair_retries;
        st.repair_wait <- 0;
        st.repair_next <- st.sv.retry_start
      end
    end
    else if sender = st.repair_node then clear_repair st

let on_proposal st (message : proposer_msg) =
  let pno = pno_of message in
  st.max_tag <- max st.max_tag pno.tag;
  if pno.proposer = st.sv.omega && pno.proposer <> st.sv.me then begin
    let key = prop_key message in
    (* Flood each of the current leader's propositions once. *)
    if not (Itbl.mem st.seen_props key) then begin
      Itbl.replace st.seen_props key ();
      st.proposal_q <- st.proposal_q @ [ message ];
      Services.refill st.sv
    end;
    (* Acceptor: respond once per proposition, routed up the leader's
       tree. Pure learners (zero weight in both configurations) still
       update their acceptor state but send nothing — their votes cannot
       count. A recovering incarnation below its vote floor abstains
       entirely — and is deliberately NOT marked as having responded, so
       a later retransmission of the same proposition gets a real answer
       once the chosen prefix has caught up. *)
    if can_vote st && not (Itbl.mem st.responded key) then begin
      Itbl.replace st.responded key ();
      let round, positive, priors, committed = acceptor_respond st message in
      let count = weight1 st and count2 = weight2 st in
      if count + count2 > 0 then
        enqueue_response st ~target:pno.proposer ~pno
          {
            q_round = round;
            q_positive = positive;
            q_cfg = cfg_tag st;
            q_count = count;
            q_count2 = count2;
            q_priors = priors;
            q_committed = committed;
          }
    end
  end

let on_response st (r : response) =
  if r.dest = st.sv.me then
    if r.target = st.sv.me then count_response st r
    else if r.target = st.sv.omega then
      enqueue_response st ~target:r.target ~pno:r.r_pno
        {
          q_round = r.round;
          q_positive = r.positive;
          q_cfg = r.r_cfg;
          q_count = r.count;
          q_count2 = r.count2;
          q_priors = r.priors;
          q_committed = r.committed;
        }

let on_snapshot st ~floor ~s_applied ~s_configs ~s_members ~s_joint ~s_epoch =
  install_snapshot st ~floor ~s_applied ~s_configs
    ~s_members:(list_of_mask s_members)
    ~s_joint:(if s_joint = 0 then None else Some (list_of_mask s_joint))
    ~s_epoch

(* ------------------------------------------------------------------ *)
(* Hardened ack tick                                                   *)
(* ------------------------------------------------------------------ *)

(* Wpaxos's tick, gated on [has_work], plus the command re-flood and the
   straggler-repair retry. *)
let hardened_tick st =
  let sv = st.sv in
  if has_work st && sv.patience_left > 0 then begin
    if Services.beat sv then begin
      st.fd_suspicions <- st.fd_suspicions + 1;
      (match st.cfg.on_suspect with
      | Some f -> f ~node:sv.me ~suspect:sv.omega
      | None -> ());
      recompute_omega st
    end;
    (if Services.refresh sv then
       (* Re-flood the oldest pending command: a loss window may have eaten
          the original Forward before the leader saw it. Patience-bounded
          like every other retransmission. The pool's head is live. *)
       match Queue.peek_opt st.cmd_pool with
       | Some cmd when not (List.mem cmd st.forward_q) ->
           st.forward_q <- st.forward_q @ [ cmd ]
       | Some _ | None -> ());
    (* Straggler-repair retry: while a known hole stays put, re-answer it
       on an exponential backoff, [repair_retries] times. *)
    (if st.repair_hole >= 0 then
       if st.repair_hole >= st.commit_index then clear_repair st
       else if st.repair_left > 0 then begin
         st.repair_wait <- st.repair_wait + 1;
         if st.repair_wait >= st.repair_next then begin
           st.repair_wait <- 0;
           st.repair_next <- min (2 * st.repair_next) sv.retry_cap;
           st.repair_left <- st.repair_left - 1;
           queue_repair st ~lag_commit:st.repair_hole;
           Services.refill sv
         end
       end);
    (* Escalate with a fresh lease: acceptors answer a new proposal number
       exactly once, so lost Prepares/Proposes/responses are all replaced
       without double counting. *)
    if Services.retry_due sv then start_prepare st
  end

(* ------------------------------------------------------------------ *)
(* Handle: the harness-side view of every replica's log                *)
(* ------------------------------------------------------------------ *)

type handle = {
  registry : state Itbl.t;  (* node -> current incarnation state *)
  submitted : unit Itbl.t;
  reconfig_cmds : unit Itbl.t;
  mutable reconfig_seq : int;
  h_propose_times : int Itbl.t;  (* the cfg's table, shared *)
}

let reconfig_cmd h ~members =
  let ms = List.sort_uniq Int.compare members in
  if ms = [] then invalid_arg "Smr.reconfig_cmd: members must be non-empty";
  List.iter
    (fun i ->
      if i < 0 || i > 29 then
        invalid_arg "Smr.reconfig_cmd: node ids must be in 0..29")
    ms;
  if h.reconfig_seq > 1023 then
    invalid_arg "Smr.reconfig_cmd: reconfiguration uid space exhausted";
  let uid = h.reconfig_seq in
  h.reconfig_seq <- h.reconfig_seq + 1;
  let base = mask_of_list ms lor (uid lsl uid_shift) in
  Itbl.replace h.reconfig_cmds (base lor joint_bit) ();
  Itbl.replace h.reconfig_cmds (base lor final_bit) ();
  base lor joint_bit

let submit h ~node ~cmd =
  if cmd <= noop then invalid_arg "Smr.submit: commands must be positive";
  if is_reconfig cmd then
    invalid_arg "Smr.submit: use Smr.reconfig_cmd for membership changes";
  Itbl.replace h.submitted cmd ();
  match Itbl.find_opt h.registry node with
  | Some st -> absorb_cmd st cmd
  | None -> invalid_arg "Smr.submit: unknown node (state not initialised)"

let injector h ~now:_ ~payload (_ctx : Amac.Algorithm.ctx) st =
  if payload <= noop then
    invalid_arg "Smr.injector: command payloads must be positive";
  if is_reconfig payload then begin
    if not (Itbl.mem h.reconfig_cmds payload) then
      invalid_arg "Smr.injector: unregistered reconfiguration command";
    absorb_cmd st payload
  end
  else begin
    Itbl.replace h.submitted payload ();
    absorb_cmd st payload
  end;
  maybe_send st

let nodes h = List.sort Int.compare (Itbl.fold (fun k _ l -> k :: l) h.registry [])

let state_of h node =
  match Itbl.find_opt h.registry node with
  | Some st -> st
  | None -> invalid_arg "Smr: unknown node"

let fold_chosen h node f init =
  Itbl.fold
    (fun i r acc -> match r.chosen with Some v -> f i v acc | None -> acc)
    (state_of h node).insts init

let was_submitted h cmd = Itbl.mem h.submitted cmd

let was_reconfig h cmd = Itbl.mem h.reconfig_cmds cmd

let submitted_count h = Itbl.length h.submitted

let propose_time h ~cmd = Itbl.find_opt h.h_propose_times cmd

type view = {
  v_node : int;
  v_log : (int * int) list;
  v_commit : int;
  v_applied : int list;
  v_floor : int;
  v_snap_applied : int list;
  v_configs : (int * int) list;
  v_epoch : int;
  v_leader : int;
  v_members : int list;
  v_joint : int list option;
  v_fd : Fd.stats;
  v_fd_suspicions : int;
  v_snapshots_taken : int;
  v_snapshots_installed : int;
  v_reconfigs_superseded : int;
}

(* Every chosen record sits below [max_inst_seen] ([note_chosen] notes it)
   and none below [snap_floor] (see [truncate]), so a downward walk over
   that range builds the log in order, without a sort. *)
let view h node =
  let st = state_of h node in
  let rec walk i acc =
    if i < st.snap_floor then acc
    else
      match Itbl.find_opt st.insts i with
      | Some { chosen = Some v; _ } -> walk (i - 1) ((i, v) :: acc)
      | Some { chosen = None; _ } | None -> walk (i - 1) acc
  in
  {
    v_node = node;
    v_log = walk (st.max_inst_seen - 1) [];
    v_commit = st.commit_index;
    v_applied = List.rev st.applied;
    v_floor = st.snap_floor;
    v_snap_applied = List.rev st.snap_applied;
    v_configs = List.sort (fun (a, _) (b, _) -> Int.compare a b) st.configs;
    v_epoch = st.epoch;
    v_leader = st.sv.omega;
    v_members = st.members;
    v_joint = st.joint;
    v_fd = Fd.stats st.sv.fd;
    v_fd_suspicions = st.fd_suspicions;
    v_snapshots_taken = st.snapshots_taken;
    v_snapshots_installed = st.snapshots_installed;
    v_reconfigs_superseded = st.reconfigs_superseded;
  }

(* ------------------------------------------------------------------ *)
(* Algorithm wiring                                                    *)
(* ------------------------------------------------------------------ *)

let init h (cfg : config) (ctx : Amac.Algorithm.ctx) =
  let n =
    match ctx.n with
    | Some n -> n
    | None -> invalid_arg "Smr: requires knowledge of n"
  in
  let me = Amac.Node_id.unique_exn ctx.id in
  let members0 =
    match cfg.members with
    | Some ms -> List.sort_uniq Int.compare ms
    | None -> List.init n Fun.id
  in
  (* A voter starts as its own leader candidate; a learner (present in the
     engine but outside the initial configuration, awaiting a scale-up)
     starts from the largest initial voter instead — it must never lead. *)
  let omega0 =
    if List.mem me members0 then me
    else List.fold_left max (List.hd members0) members0
  in
  (* Amnesiac recovery: the registry still holds the crashed incarnation.
     Inherit its durable watermarks — promise, proposal tag, and a vote
     floor covering every instance ANY earlier incarnation may have voted
     in (max over the chain, since a crashed incarnation that never caught
     up past its own floor has a short log end of its own). Everything
     else — log, applied state, acceptor slots — is genuinely forgotten
     and re-learned from repair traffic or a snapshot transfer. *)
  let prior = Itbl.find_opt h.registry me in
  let floor0 =
    match prior with
    | Some old -> max old.vote_floor old.max_inst_seen
    | None -> 0
  in
  let sv =
    Services.create ~me ~n ~omega:omega0
      ~patience:(Option.value cfg.patience ~default:((4 * n) + 16))
  in
  let st =
    {
      sv;
      cfg;
      insts = Itbl.create 64;
      commit_index = 0;
      max_inst_seen = 0;
      applied = [];
      applied_set = Itbl.create 64;
      members = members0;
      joint = None;
      epoch = 0;
      configs = [];
      pending_joints = [];
      register_reconfig =
        (fun jc ->
          Itbl.replace h.reconfig_cmds jc ();
          Itbl.replace h.reconfig_cmds (final_of_joint jc) ());
      snap_floor = 0;
      snap_applied = [];
      snap_configs = [];
      snap_members = members0;
      snap_joint = None;
      snap_epoch = 0;
      snap_q = false;
      known_cmds = Itbl.create 64;
      cmd_pool = Queue.create ();
      chosen_cmds = Itbl.create 64;
      forward_q = [];
      max_tag = (match prior with Some old -> old.max_tag | None -> 0);
      lease = No_lease;
      attempts_left = 1;
      proposing = Itbl.create 8;
      proposal_q = [];
      seen_props = Itbl.create 64;
      promised = (match prior with Some old -> old.promised | None -> None);
      vote_floor = floor0;
      responded = Itbl.create 64;
      decide_q = Queue.create ();
      decide_set = Itbl.create 8;
      repair_node = -1;
      repair_hole = -1;
      repair_left = 0;
      repair_wait = 0;
      repair_next = sv.retry_start;
      fd_suspicions = 0;
      snapshots_taken = 0;
      snapshots_installed = 0;
      reconfigs_superseded = 0;
    }
  in
  Itbl.replace h.registry me st;
  local_change st;
  (st, maybe_send st)

(* Leader updates first so later components in the same broadcast are
   judged against the freshest omega; snapshots and decisions before
   proposals, so an acceptor answers a Prepare with its freshest
   configuration and commit index (a reconfiguring leader packs the
   closing Decision and the re-Prepare into one broadcast). *)
let rank = function
  | Leader _ -> 0
  | Change _ -> 1
  | Search _ -> 2
  | Forward _ -> 3
  | Snapshot _ -> 4
  | Decision _ -> 5
  | Proposal _ -> 6
  | Response _ -> 7

let rec dispatch st = function
  | [] -> ()
  | component :: rest ->
      (match component with
      | Leader { id; hb; commit; sender } -> on_leader st ~id ~hb ~commit ~sender
      | Change { counter; origin } ->
          if Services.on_change st.sv ~counter ~origin then change_updateq st
      | Search { root; hops; sender } ->
          if Services.on_search st.sv ~root ~hops ~sender then local_change st
      | Forward { cmd } -> absorb_cmd st cmd
      | Snapshot { floor; s_applied; s_configs; s_members; s_joint; s_epoch }
        ->
          on_snapshot st ~floor ~s_applied ~s_configs ~s_members ~s_joint
            ~s_epoch
      | Decision { inst; value } -> note_chosen st inst value
      | Proposal p -> on_proposal st p
      | Response r -> on_response st r);
      dispatch st rest

(* [compose] puts a Snapshot or Decision after the Proposal and Response it
   packs with, so those messages are sorted; a ranked one is used as it
   is. *)
let on_receive _ctx st (components : msg) =
  dispatch st (Services.in_rank_order ~rank components);
  maybe_send st

let on_ack _ctx st =
  st.sv.sending <- false;
  hardened_tick st;
  maybe_send st

let component_ids = function
  | Leader _ -> 1
  | Change _ -> 1
  | Search _ -> 2
  | Forward _ -> 0
  | Snapshot { s_applied; s_configs; _ } ->
      4 + List.length s_applied + List.length s_configs
  | Proposal _ -> 1
  | Response r -> 4 + List.length r.priors + (match r.committed with None -> 0 | Some _ -> 1)
  | Decision _ -> 0

let msg_ids components = Services.msg_ids ~ids:component_ids components

let pp_round = function
  | Rprep -> "prep"
  | Racc inst -> Printf.sprintf "acc[%d]" inst

let pp_component = function
  | Leader { id; hb; commit; sender } ->
      Printf.sprintf "leader(%d,hb=%d,ci=%d@%d)" id hb commit sender
  | Change { counter; origin } -> Printf.sprintf "change(%d@%d)" counter origin
  | Search { root; hops; sender } ->
      Printf.sprintf "search(root=%d,h=%d,from=%d)" root hops sender
  | Forward { cmd } -> Printf.sprintf "fwd(%d)" cmd
  | Snapshot { floor; s_applied; s_members; s_joint; s_epoch; _ } ->
      Printf.sprintf "snap(floor=%d,app=[%s],m=%d,j=%d,e=%d)" floor
        (String.concat "," (List.map string_of_int s_applied))
        s_members s_joint s_epoch
  | Proposal (Prepare { pno; from_inst }) ->
      Printf.sprintf "prepare(%s,from=%d)" (pp_pno pno) from_inst
  | Proposal (Propose { pno; inst; value }) ->
      Printf.sprintf "propose(%s,[%d]=%d)" (pp_pno pno) inst value
  | Response r ->
      Printf.sprintf "resp{to=%d;tgt=%d;%s;%s;%s;x%d}" r.dest r.target
        (pp_pno r.r_pno) (pp_round r.round)
        (if r.positive then "yes" else "no")
        r.count
  | Decision { inst; value } -> Printf.sprintf "chosen([%d]=%d)" inst value

let pp_msg components = String.concat "+" (List.map pp_component components)

(* ------------------------------------------------------------------ *)
(* Fingerprint / clone (the PR 4 hook discipline). [hooks] on the bare *)
(* algorithm stays [None] — single-group fuzz baselines are pinned on   *)
(* the Marshal-free replay path — but wrappers that multiplex several   *)
(* instances (the sharded transport) compose these per group.          *)
(* ------------------------------------------------------------------ *)

module F = Amac.Fingerprint

let fp_pno = Services.fp_pno

let fp_prior = Services.fp_prior

let fp_pair f g (a, b) acc = acc |> f a |> g b

let fp_tbl fp_key fp_val tbl acc =
  (* Sorted bindings: hash tables with the same contents in different
     internal layouts fold equal, which only improves deduplication. *)
  let bindings = Itbl.fold (fun k v l -> (k, v) :: l) tbl [] in
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) bindings in
  F.list (fp_pair fp_key fp_val) sorted acc

let fp_unit () acc = F.int 0 acc

(* Packed keys sort as their triples, so this folds what a tuple-keyed
   table folded. *)
let fp_prop_key k acc =
  let tag, proposer, inst = Prop_key.unpack k in
  acc |> F.int tag |> F.int proposer |> F.int inst

let fp_lease lease acc =
  match lease with
  | No_lease -> F.int 0 acc
  | Preparing { pno; from_inst; yes; no; yes2; no2; priors } ->
      acc |> F.int 1 |> fp_pno pno |> F.int from_inst |> F.int yes |> F.int no
      |> F.int yes2 |> F.int no2
      |> fp_tbl F.int fp_prior priors
  | Ready { pno; priors } ->
      acc |> F.int 2 |> fp_pno pno |> fp_tbl F.int fp_prior priors

let fp_proposer_msg m acc =
  match m with
  | Prepare { pno; from_inst } -> acc |> F.int 0 |> fp_pno pno |> F.int from_inst
  | Propose { pno; inst; value } ->
      acc |> F.int 1 |> fp_pno pno |> F.int inst |> F.int value

let fp_resp_round r acc =
  match r with Rprep -> F.int (-1) acc | Racc inst -> F.int inst acc

let fingerprint_state st acc =
  acc |> F.int st.sv.me |> F.int st.sv.n |> Services.fp_services st.sv
  |> Consensus.Tree.fingerprint st.sv.tree
  |> fp_tbl F.int
       (fun (r : inst) acc ->
         acc |> F.option fp_prior r.accepted |> F.option F.int r.chosen)
       st.insts
  |> F.int st.commit_index |> F.int st.max_inst_seen
  |> F.list F.int st.applied
  |> F.list F.int st.members
  |> F.option (F.list F.int) st.joint
  |> F.int st.epoch
  |> F.list (fp_pair F.int F.int) st.configs
  |> F.list F.int st.pending_joints
  |> F.int st.snap_floor
  |> F.list F.int st.snap_applied
  |> F.list (fp_pair F.int F.int) st.snap_configs
  |> F.list F.int st.snap_members
  |> F.option (F.list F.int) st.snap_joint
  |> F.int st.snap_epoch |> F.bool st.snap_q
  |> fp_tbl F.int fp_unit st.known_cmds
  (* live pool entries only: dead ones are not protocol state *)
  |> F.list F.int
       (Queue.to_seq st.cmd_pool
       |> Seq.filter (fun c -> not (Itbl.mem st.chosen_cmds c))
       |> List.of_seq)
  |> fp_tbl F.int fp_unit st.chosen_cmds
  |> F.list F.int st.forward_q
  |> F.int st.max_tag |> fp_lease st.lease |> F.int st.attempts_left
  |> fp_tbl F.int
       (fun (f : flight) acc ->
         acc |> F.int f.f_value |> F.int f.f_yes |> F.int f.f_no
         |> F.int f.f_yes2 |> F.int f.f_no2)
       st.proposing
  |> F.list fp_proposer_msg st.proposal_q
  |> fp_tbl fp_prop_key fp_unit st.seen_props
  |> F.option fp_pno st.promised
  |> F.int st.vote_floor
  |> fp_tbl fp_prop_key fp_unit st.responded
  |> F.list
       (fun (e : pending_response Services.entry) acc ->
         let q = e.body in
         acc |> F.int e.target |> fp_pno e.pno |> fp_resp_round q.q_round
         |> F.bool q.q_positive |> F.int q.q_cfg |> F.int q.q_count
         |> F.int q.q_count2
         |> F.list (fp_pair F.int fp_prior) q.q_priors
         |> F.option fp_pno q.q_committed)
       st.sv.response_q
  |> F.list (fp_pair F.int F.int) (List.of_seq (Queue.to_seq st.decide_q))
  |> Services.fp_transport st.sv |> F.int st.repair_node
  |> F.int st.repair_hole |> F.int st.repair_left |> F.int st.repair_wait
  |> F.int st.repair_next
(* Lifecycle counters are observability, not protocol state: states that
   differ only there are equivalent, so they are deliberately not folded. *)

let fp_component c acc =
  match c with
  | Leader { id; hb; commit; sender } ->
      acc |> F.int 0 |> F.int id |> F.int hb |> F.int commit |> F.int sender
  | Change { counter; origin } -> acc |> F.int 1 |> F.int counter |> F.int origin
  | Search { root; hops; sender } ->
      acc |> F.int 2 |> F.int root |> F.int hops |> F.int sender
  | Forward { cmd } -> acc |> F.int 3 |> F.int cmd
  | Snapshot { floor; s_applied; s_configs; s_members; s_joint; s_epoch } ->
      acc |> F.int 4 |> F.int floor
      |> F.list F.int s_applied
      |> F.list (fp_pair F.int F.int) s_configs
      |> F.int s_members |> F.int s_joint |> F.int s_epoch
  | Proposal p -> acc |> F.int 5 |> fp_proposer_msg p
  | Response r ->
      acc |> F.int 6 |> F.int r.dest |> F.int r.target |> fp_pno r.r_pno
      |> fp_resp_round r.round |> F.bool r.positive |> F.int r.count
      |> F.int r.count2 |> F.int r.r_cfg
      |> F.list (fp_pair F.int fp_prior) r.priors
      |> F.option fp_pno r.committed
  | Decision { inst; value } -> acc |> F.int 7 |> F.int inst |> F.int value

let fingerprint_msg (components : msg) acc = F.list fp_component components acc

let clone_state st =
  let deep_copy copy tbl =
    let fresh = Itbl.copy tbl in
    Itbl.filter_map_inplace (fun _ v -> Some (copy v)) fresh;
    fresh
  in
  let clone_lease = function
    | No_lease -> No_lease
    | Preparing p -> Preparing { p with priors = Itbl.copy p.priors }
    | Ready r -> Ready { r with priors = Itbl.copy r.priors }
  in
  {
    st with
    sv = Services.clone (fun q -> { q with q_count = q.q_count }) st.sv;
    insts = deep_copy (fun (r : inst) -> { r with chosen = r.chosen }) st.insts;
    applied_set = Itbl.copy st.applied_set;
    known_cmds = Itbl.copy st.known_cmds;
    chosen_cmds = Itbl.copy st.chosen_cmds;
    cmd_pool = Queue.copy st.cmd_pool;
    lease = clone_lease st.lease;
    proposing =
      deep_copy (fun (f : flight) -> { f with f_yes = f.f_yes }) st.proposing;
    seen_props = Itbl.copy st.seen_props;
    responded = Itbl.copy st.responded;
    decide_q = Queue.copy st.decide_q;
    decide_set = Itbl.copy st.decide_set;
  }

let make ?(window = 4) ?on_apply ?on_suspect ?members ?compact_every ?patience
    ?(repair_retries = 8) ?clock () =
  if window < 1 then invalid_arg "Smr.make: window must be >= 1";
  (match compact_every with
  | Some k when k < 1 -> invalid_arg "Smr.make: compact_every must be >= 1"
  | Some _ | None -> ());
  (match patience with
  | Some p when p < 1 -> invalid_arg "Smr.make: patience must be >= 1"
  | Some _ | None -> ());
  if repair_retries < 0 then
    invalid_arg "Smr.make: repair_retries must be >= 0";
  (match members with
  | Some [] -> invalid_arg "Smr.make: members must be non-empty"
  | Some ms ->
      List.iter
        (fun i ->
          if i < 0 || i > 29 then
            invalid_arg "Smr.make: member ids must be in 0..29")
        ms
  | None -> ());
  let propose_times = Itbl.create 64 in
  let cfg =
    {
      window;
      on_apply;
      on_suspect;
      patience;
      compact_every;
      repair_retries;
      members;
      clock;
      propose_times;
    }
  in
  let h =
    {
      registry = Itbl.create 8;
      submitted = Itbl.create 64;
      reconfig_cmds = Itbl.create 8;
      reconfig_seq = 0;
      h_propose_times = propose_times;
    }
  in
  let algorithm =
    {
      Amac.Algorithm.name = Printf.sprintf "smr-wpaxos(w=%d)" window;
      init = init h cfg;
      on_receive;
      on_ack;
      msg_ids;
      hooks = None;
    }
  in
  (algorithm, h)

