(** Multi-decree state-machine replication over repeated wPAXOS instances,
    multiplexed on one abstract-MAC-layer run.

    The paper's wPAXOS (Sec 4.2) decides a single value; a replicated log
    needs one decision per log instance. This module is the standard
    multi-Paxos construction transplanted onto the wPAXOS machinery:

    - The {e shared services} — leader election Ω (max unsuspected id over
      heartbeats), the change service (Lamport-stamped change flooding), the
      tree-building service (parent pointers for response aggregation) and
      the broadcast service (one component per queue per message) — are
      [Consensus.Services], the kit [Consensus.Wpaxos] also runs on,
      including its hardening (ack-clocked heartbeats with a patience
      budget, leader suspicion via the {!Fd} ◇P detector,
      exponential-backoff retransmission).
    - {e Leader lease}: one [Prepare] with a fresh proposal number covers
      {e every} instance at or above the leader's commit index; acceptors
      keep a single lease-wide promise and return their accepted priors per
      instance. A quorum of promises establishes the lease.
    - {e Instance pipelining}: while the lease holds, the leader streams
      per-instance [Propose] messages under the same number, for up to
      [window] instances beyond the commit index, without waiting for
      earlier instances to choose. Holes below the known log end are filled
      with [noop]; prior-bound instances re-propose the prior's value
      (Paxos safety).
    - {e Commit = chosen prefix}: an instance is chosen on a quorum of
      accepts and the decision is flooded (once per node). Each replica's
      commit index is the length of its contiguous chosen prefix; commands
      in the prefix are applied to the state machine exactly once, in log
      order, skipping noops. Replicas piggyback their commit index on
      heartbeats; a neighbor that is ahead answers with the decision for
      the straggler's first hole (log repair), with a bounded
      exponential-backoff {e retry} schedule per observed hole — a single
      lost repair answer must not stall a recovered replica forever.
    - {e Client commands} are positive ints, flooded network-wide
      ([Forward] components, forward-once per node) so they reach the
      leader in multihop topologies; any replica accepts submissions.

    {b Log compaction + snapshot transfer} ([compact_every]): once the
    commit index advances [compact_every] instances past the current floor,
    the replica snapshots its applied state machine (applied prefix,
    configuration history, membership, epoch) at the commit watermark and
    truncates the log below it. Snapshots are transferred {e on demand}: to
    a straggler whose commit index lags the floor, and to any proposer
    whose proposition reaches below the floor (the acceptor rejects such
    propositions — the priors they would need are gone — and sends the
    snapshot instead, which preserves quorum intersection for chosen
    values). Installation replaces the installing replica's applied state
    wholesale; snapshot-covered commands are {e not} replayed through
    [on_apply].

    {b Membership reconfiguration} (joint consensus): a reconfiguration is
    an ordinary log command (see {!reconfig_cmd}) carrying the new
    membership. When the {e joint} command commits, a transition opens:
    from then on every quorum requires a majority of the old configuration
    {e and} a majority of the new one (so any two quorums intersect in at
    least the old majority). Every replica that applies the joint command
    auto-stages the matching {e final} command, which — once committed —
    adopts the new membership and bumps the {e epoch}. Configurations
    activate at {e commit} time, and a leader restarts its lease whenever
    the quorum rule changes. Replicas outside the current membership are
    {e learners}: they accept, apply and repair, but their votes carry no
    weight and they never lead.

    Crash-recovery is amnesiac for the log and the applied state (the
    model's semantics): a recovered replica restarts with an empty log and
    re-learns chosen instances from its neighbors' repair traffic — or,
    past the compaction floor, from a snapshot transfer. Exactly-once
    apply is per incarnation. The {e acceptor} role, however, cannot be
    amnesiac: a fresh incarnation that re-votes on an instance its
    predecessor already voted in lets two choosing quorums pivot on the
    two incarnations of one node and choose different values. A recovered
    incarnation therefore inherits a minimal durable footprint — its
    promise, its proposal-number watermark, and a {e vote floor} at the
    previous incarnation's log end — and abstains from every acceptor
    action (promises, accepts, its own self-vote as leader) until its
    chosen prefix covers the floor; below the floor it then reports only
    decided values, above it no earlier incarnation ever voted. This is
    the watermark Raft persists (term + vote) without persisting the log;
    until catch-up the replica weighs like a crashed voter, so a run
    whose fault plan starves the remaining quorum can legitimately stall
    where an unsafe re-vote would have "progressed".

    The algorithm never emits an engine-level [Decide]; run it with
    [stop_when_all_decided:false] and judge the run with {!Smr_checker}. *)

(** The reserved hole-filler command (0). Real commands are [> noop]. *)
val noop : int

(** The monomorphic int-keyed table behind the log's per-node and
    harness-side tables, and [Shard]'s. *)
module Itbl : Hashtbl.S with type key = int

type state

type component

(** One MAC-layer broadcast: at most one component per queue. *)
type msg = component list

(** A harness-side view of every replica's log, shared by the algorithm
    returned from {!make}. The registry always tracks each node's {e
    current incarnation} (recovery re-registers the fresh state). *)
type handle

(** [make ?window ?on_apply ... ()] builds the algorithm plus its handle.

    @param window how many instances beyond the commit index may be in
      flight at once (default 4).
    @param on_apply called at every replica, exactly once per applied
      command, in apply (= log) order: [f ~node ~index ~cmd]. Called from
      inside the engine's handlers — it may in turn call {!submit} for
      [node] (closed-loop clients resubmitting on completion). {b Not}
      called for commands covered by an installed snapshot (the snapshot
      {e is} the applied state), nor for reconfiguration commands.
    @param on_suspect called when a replica's detector suspects its current
      leader ([f ~node ~suspect]); observability hook, fired before the
      re-election it triggers.
    @param members the initial voting configuration (default: all [n]
      nodes). Nodes outside it start as learners awaiting a scale-up.
    @param compact_every compaction watermark interval: snapshot + truncate
      every time the commit index advances this many instances past the
      floor (default: never compact).
    @param patience the ◇P detector's own-ack silence budget before the
      leader is suspected (default [4n + 16]; see {!Fd}). It stays fixed
      for the whole run.
    @param repair_retries how many times a replica re-answers a straggler
      whose commit index stays put (default 8; [0] = answer only when a
      heartbeat is heard, the pre-PR 7 behavior — a single lost repair can
      then stall a silent straggler forever, see [test_smr.ml]).
    @param clock the engine's clock cell (the same [ref] handed to
      [Engine.run ?clock]). When present, the algorithm timestamps each
      client command's {e first} [Propose] anywhere in the cluster
      (readable via {!propose_time}), splitting commit latency into a
      queueing phase (submit → first propose: forwarding, leader election,
      window waits) and a replication phase (first propose → commit).
      Purely observational — proposing behaviour is identical with or
      without it.
    @raise Invalid_argument on out-of-range parameters ([window < 1],
      [compact_every < 1], [patience < 1], [repair_retries < 0], empty
      [members], member ids outside 0..29). *)
val make :
  ?window:int ->
  ?on_apply:(node:int -> index:int -> cmd:int -> unit) ->
  ?on_suspect:(node:int -> suspect:int -> unit) ->
  ?members:int list ->
  ?compact_every:int ->
  ?patience:int ->
  ?repair_retries:int ->
  ?clock:int ref ->
  unit ->
  (state, msg) Amac.Algorithm.t * handle

(** [submit h ~node ~cmd] hands a client command to a replica. Must be
    called from within that node's handler context (e.g. an [on_apply]
    callback) — the actions it triggers are emitted by the enclosing
    handler's [finish]. For submissions at arbitrary times use engine
    injections with {!injector}.
    @raise Invalid_argument if [cmd <= noop], if [cmd] has reconfiguration
    bits set (inject a {!reconfig_cmd} instead), or if the node is unknown. *)
val submit : handle -> node:int -> cmd:int -> unit

(** [injector h] is an [Engine.on_inject] handler: the payload is the
    command, submitted at the injection's target node. Payloads created by
    {!reconfig_cmd} are routed as reconfigurations (and are not counted as
    client submissions).
    @raise Invalid_argument if a payload is [<= noop] or is an unregistered
    reconfiguration command. *)
val injector :
  handle ->
  now:int ->
  payload:int ->
  Amac.Algorithm.ctx ->
  state ->
  msg Amac.Algorithm.action list

(** {2 Membership reconfiguration} *)

(** [reconfig_cmd h ~members] registers a reconfiguration to the given
    membership and returns the {e joint} command, suitable as an
    {!injector} payload. The matching final command is staged automatically
    by every replica that applies the joint.
    @raise Invalid_argument if [members] is empty or contains ids outside
    0..29, or after 1024 reconfigurations on one handle. *)
val reconfig_cmd : handle -> members:int list -> int

(** Whether a command was registered by {!reconfig_cmd} on this handle
    (either the joint or the final form). *)
val was_reconfig : handle -> int -> bool

(** Structural test on command values (no handle needed): the joint or
    final form of a reconfiguration. *)
val is_reconfig : int -> bool

(** {2 Log access} *)

(** Replica ids currently registered, sorted. *)
val nodes : handle -> int list

(** [fold_chosen h node f init] folds [f instance value] over the node's
    retained chosen instances (those of {!view}'s [v_log]), in no
    particular order. *)
val fold_chosen : handle -> int -> (int -> int -> 'a -> 'a) -> 'a -> 'a

(** Whether a command was ever handed to {!submit}/{!injector}. *)
val was_submitted : handle -> int -> bool

val submitted_count : handle -> int

(** [propose_time h ~cmd] — the tick of [cmd]'s first [Propose] anywhere in
    the cluster. [None] if never proposed, or if {!make} ran without
    [?clock]. *)
val propose_time : handle -> cmd:int -> int option

(** {2 One replica's state} *)

(** One replica's observable state, current incarnation. [v_log] is the
    retained chosen log as sorted [(instance, value)] pairs (possibly with
    holes; instances below the compaction floor are truncated away);
    [v_commit] the length of the contiguous chosen prefix; [v_applied] the
    full apply sequence, oldest first, including any snapshot-inherited
    prefix; [v_floor]/[v_snap_applied] the compaction floor and the
    snapshot's apply prefix ([0]/[[]] when the replica never compacted or
    installed a snapshot); [v_configs] the reconfiguration commands in the
    committed prefix, snapshot-inherited ones included, as sorted
    [(instance, cmd)] pairs; [v_epoch] the completed reconfigurations.

    The rest is for observability and the tests: [v_leader] is the Ω
    leader estimate, always a voter while the configuration has one
    (learners and removed replicas never elect themselves);
    [v_members] the voting configuration, sorted; [v_joint] the incoming
    configuration while mid-transition; [v_fd] the ◇P detector's stats
    (see {!Fd.stats}); and four per-incarnation counters: leader
    suspicions raised, snapshots taken and installed, and joints that
    committed while another transition was open (each is re-minted under
    a fresh uid and re-proposed once the open transition closes).

    {!Smr_checker.check_views} judges the contract over these fields. *)
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

(** [view h node] — the node's current state.
    @raise Invalid_argument if the node is unknown. *)
val view : handle -> int -> view

val pp_msg : msg -> string

(** {2 Fingerprint / clone}

    The PR 4 hook discipline, exposed so wrappers that multiplex several
    SMR instances (the {e sharded} transport in [lib/shard]) can compose a
    sound {!Amac.Algorithm.hooks} from per-group pieces. [hooks] on the
    algorithm returned by {!make} itself stays [None] (the single-group
    fuzz baselines are pinned on that path).

    - {!fingerprint_state} folds the {e protocol} content (hash tables as
      sorted bindings, so layout differences never split states; lifecycle
      counters, which are observability only, are not folded);
    - {!fingerprint_msg} folds an in-flight message;
    - {!clone_state} deep-copies everything mutable; the shared handle
      plumbing ([cfg], the reconfiguration registrar) is shared, as the
      hook contract treats harness-side tables as global. *)

val fingerprint_state : state -> Amac.Fingerprint.t -> Amac.Fingerprint.t

val fingerprint_msg : msg -> Amac.Fingerprint.t -> Amac.Fingerprint.t

val clone_state : state -> state

