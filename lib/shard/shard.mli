(** Sharded multi-group SMR over one abstract MAC layer.

    The single-group {!Smr} algorithm serialises everything through one
    replicated log, so throughput is capped by one leader's broadcast
    budget: one MAC broadcast in flight per node, one ack per F_ack
    window. This wrapper partitions the keyspace across [G] independent
    SMR groups and multiplexes all of them onto the {e same} engine run:
    every node runs [G] inner replicas, messages carry a group tag, and
    the wrapper routes each delivery to its group's instance. Groups
    share nothing but the MAC channel — there is no cross-group log,
    no cross-group ordering, and a command belongs to exactly one group
    (its key modulo [G], see {!route}).

    {b Channel multiplexing.} The MAC layer still allows one broadcast
    in flight per {e node}, not per group. Inner instances hand their
    broadcasts to a per-group outbox; when the wire is free the
    wrapper drains {e every} non-empty outbox into one group-tagged
    bundle — the sharded analogue of {!Smr}'s own component-list
    messages — and the single MAC ack is fanned back to each
    contributing group's instance. Sharing the wire slot is both the
    no-head-of-line-blocking guarantee (a group replaying a long log
    cannot starve the others' heartbeats — their traffic rides the same
    bundle) and the scaling mechanism: the broadcast/ack cadence, the
    scarce per-node resource, is paid once for all [G] groups instead
    of once per group, so G leaders run replication rounds at full
    cadence concurrently. An outbox holds at most one message: {!Smr}
    broadcasts only while nothing of its own is on the wire, so a group
    never hands over a second message before its ack, and one that did
    would raise [Invalid_argument]. A recovering node starts with empty
    outboxes.

    {b Batching.} Client commands are staged per (node, group) and
    flushed [batch] at a time as a single inner command (bit 42 set,
    payload registered on the handle), so one Propose — one window
    slot, one replication round — carries up to [batch] commands. The
    inner log stays int-valued; batches are expanded exactly-once at
    apply time, in staging order. Staged-but-unflushed commands die
    with a crash, like any unreplicated client request; {!flush_cmd}
    injections force out stragglers at end of load.

    Safety is judged by {!Smr_checker.check_shard_views}: the full
    single-group contract per group, cross-group exactly-once per
    client command, and batch atomicity. What this deployment does
    {e not} give is any ordering between commands of different groups —
    per-group linearizability only (see DESIGN.md). *)

type state

type msg

type handle

(** [expand h value] is [Some cmds] (staging order) iff [value] is a
    batch minted on [h]. Batch sequence numbers are dense from 1, so this
    is an array read, with no hashing; the result is the option stored at
    minting, not a fresh one. *)
val expand : handle -> int -> int list option

(** [flush_cmd ~group] — an injection payload that force-flushes the
    target node's staged commands for [group] (bit 43 set). Schedule a
    few after the last client injection or trailing sub-batch commands
    never replicate. *)
val flush_cmd : group:int -> int

(** [route h ~key ~cmd] registers [cmd] as owned by [key]'s group and
    returns that group. The keyspace partition is static, total and
    deterministic: [key] belongs to group [key mod G] (taken in [0, G)
    for negative keys too). Injection payloads must be routed first —
    {!injector} refuses unrouted payloads.
    @raise Invalid_argument if [cmd] is not a plain positive command
    (reserved bits 40+ clear). *)
val route : handle -> key:int -> cmd:int -> int

(** [make ~groups ()] builds the sharded algorithm and its handle.
    [batch] (default 1 = no batching) is the flush threshold per
    (node, group). [members_of g] is group [g]'s voting configuration
    (default: all nodes; groups may overlap). [on_apply] fires per
    {e client} command, batches expanded, exactly once per (node,
    group, command). [window] and [clock] are passed through to every
    inner {!Smr.make}, whose other parameters keep their defaults: no
    compaction, a fixed [4n + 16] detector patience and 8 repair
    retries.
    @raise Invalid_argument if [groups < 1], [groups > 64] or
    [batch < 1]. *)
val make :
  ?window:int ->
  ?batch:int ->
  ?on_apply:(node:int -> group:int -> cmd:int -> unit) ->
  ?members_of:(int -> int list) ->
  ?clock:int ref ->
  groups:int ->
  unit ->
  (state, msg) Amac.Algorithm.t * handle

(** [injector h] is an [Engine.on_inject] handler: client payloads
    (registered via {!route}) are staged into their group's batch
    buffer and flushed at the batch threshold; {!flush_cmd} payloads
    force a flush.
    @raise Invalid_argument on an unrouted payload. *)
val injector :
  handle ->
  now:int ->
  payload:int ->
  Amac.Algorithm.ctx ->
  state ->
  msg Amac.Algorithm.action list

(** {2 Introspection} *)

(** [inner h g] — group [g]'s underlying {!Smr} handle. *)
val inner : handle -> int -> Smr.handle

(** Distinct client commands staged at a live replica. *)
val submitted : handle -> int

(** Distinct client commands applied by at least one replica. *)
val committed : handle -> int

(** Batches minted (flushes of two or more commands). *)
val batches : handle -> int

(** [applied_cmds h ~node ~group] — the node's flattened client-command
    apply stream for [group] (batches expanded, oldest first; current
    incarnation). *)
val applied_cmds : handle -> node:int -> group:int -> int list

(** The sharded safety contract over the handle's current state
    (see {!Smr_checker.check_shard_views}). Empty = holds. *)
val check : handle -> Smr_checker.shard_violation list

(** Render a group-tagged message (for [Engine.run ~pp_msg]). *)
val pp_msg : msg -> string
