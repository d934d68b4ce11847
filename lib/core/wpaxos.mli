(** Wireless PAXOS (Sec 4.2): consensus in multihop networks in
    O(D · F_ack) time, assuming unique ids and knowledge of n.

    wPAXOS combines the classic PAXOS proposer/acceptor logic with four
    support services, each with its own outgoing-message queue, multiplexed
    onto the single MAC-layer channel by a broadcast service (the paper's
    Algorithms 2–5):

    - {b leader election}: flood the maximum id; eventually stabilises
      network-wide to the same leader Ω.
    - {b tree building}: Bellman–Ford iterative refinement maintaining, for
      every potential root, a shortest-path tree — with the current leader's
      search messages prioritised so the leader's tree completes soon after
      the election stabilises.
    - {b change}: notifies proposers when to generate a fresh proposal
      number; guarantees the eventual leader proposes {e after} the other
      services stabilise, but only Θ(1) more times.
    - {b broadcast}: dequeues at most one message per service and packs them
      into a single O(1)-ids broadcast.

    Acceptor responses are routed up the leader's tree and {e aggregated}:
    same-kind responses to the same proposition merge into a count (keeping
    only the highest-numbered embedded prior proposal), which is what brings
    response collection from Θ(n · F_ack) down to O(D · F_ack). Lemma 4.2
    (counts never exceed the number of generating acceptors) can be checked
    at runtime via {!instrument}.

    Deviations from the paper, both documented in DESIGN.md:
    - The change service's [time stamp()] is a Lamport clock (the model has
      no global clocks); stamps are (counter, id) pairs joined on receipt.
    - Because Lamport stamps do not totally order concurrent changes the way
      real timestamps do, a proposer that exhausts its two attempts for a
      notification treats a majority-reject as a fresh local change (flooded
      like any other). This preserves the paper's Θ(1)-new-proposals-after-
      stabilisation property and removes a liveness gap: rejections bump the
      tag above the largest committed number, so retries terminate.

    {b Hardening} ([retransmit], on by default; see DESIGN.md "Fault model"):
    the paper assumes a reliable MAC layer and fail-stop crashes, under
    which wPAXOS as written is live. Under [Fault] plans (bounded loss
    windows, partitions, crash-recovery) it needs three additions, all
    clocked by the node's own acks — the only clock in the model:
    - {e heartbeats}: an undecided node broadcasts on every ack (a [Leader]
      component carrying the leader's heartbeat count), keeping its clock
      ticking; bounded by a patience budget refilled on observable protocol
      progress, so runs where consensus is impossible still quiesce.
    - {e leader re-election on silence}: followers suspect a leader whose
      heartbeat count stalls for [4n+16] acks and fall back to the largest
      unsuspected id; a heartbeat advancing past the suspicion point
      unsuspects (false suspicion under loss heals itself).
    - {e re-proposal with backoff}: a leader whose proposition stops making
      counted progress issues a {e fresh} proposal number (exponential
      backoff, [2n+8] acks and up). Re-sending aggregated {e responses}
      could double-count at the proposer (responses carry counts, not ids),
      so recovery always goes through a new proposition, which every
      acceptor answers exactly once — classic-PAXOS-safe.
    A decided node answers any heartbeat it hears with its decision, which
    is how recovered (amnesiac) or starved nodes re-learn the outcome. With
    [~retransmit:false] the algorithm is exactly the paper's: safe under
    any plan, but a single lost delivery can end liveness — the fault-plan
    fuzzer finds and shrinks such schedules (see [bin/mcheck_fuzz]
    [MCHECK_FAULTS] mode). *)

type component =
  | Leader of { id : int; hb : int }
      (** Alg 2: candidate leader id; [hb] is the candidate's heartbeat
          count (always 0 when hardening is off) *)
  | Change of { counter : int; origin : int }  (** Alg 3: Lamport stamp *)
  | Search of { root : int; hops : int; sender : int }  (** Alg 4 *)
  | Proposal of Paxos_types.proposer_msg  (** flooded prepare/propose *)
  | Response of Paxos_types.response  (** tree-routed acceptor response *)
  | Decision of int  (** flooded decide *)

(** One MAC-layer broadcast: at most one component per service queue. *)
type msg = component list

type state

(** Per-run instrumentation for checking the Lemma 4.2 conservation
    invariant: for every proposition, the count the proposer accumulates
    never exceeds the number of acceptors that generated an affirmative
    response. Create one per run and share it across nodes via {!make}. *)
module Instrument = Services.Instrument

(** [make ()] builds a fresh wPAXOS instance (create one per run: the
    instrument, if any, is shared mutable state).

    @param leader_priority Alg 4's move-the-leader's-search-to-the-front
      optimisation (default [true]; disable for the E9 ablation).
    @param aggregate merge acceptor responses in queues (default [true];
      disable for the E9 ablation — counts remain correct, one entry each).
    @param quorum override the acceptance threshold (default ⌊n/2⌋ + 1).
      This realises the paper's footnote 1: wPAXOS "still works even if
      provided only good enough knowledge of n to recognize a majority" —
      any [quorum] with n/2 < quorum <= n preserves correctness (quorums
      intersect and are live). A quorum of at most n/2 breaks quorum
      intersection and a long partition can then split the decision; see
      [test_wpaxos.ml] for the executable counterexample.
    @param instrument attach a Lemma 4.2 checker.
    @param retransmit fault hardening — heartbeats, silence-based leader
      re-election, fresh-proposal retransmission with exponential backoff
      (default [true]; disable to get the paper's original protocol, which
      the fault-plan fuzzer can break for liveness). The ◇P detector then
      suspects a leader after a fixed [4n + 16] own acks of silence (see
      {!Fd}).
    @raise Invalid_argument if [quorum < 1]. *)
val make :
  ?leader_priority:bool ->
  ?aggregate:bool ->
  ?quorum:int ->
  ?instrument:Instrument.t ->
  ?retransmit:bool ->
  unit ->
  (state, msg) Amac.Algorithm.t

val pp_msg : msg -> string
