(** The discrete-event simulation kernel implementing the abstract MAC layer
    contract of Sec 2.

    Semantics enforced by the engine, per the model definition:

    - {b Acknowledged local broadcast.} A broadcast by [u] at time [t] is
      delivered to {e every} non-crashed neighbor of [u] at
      scheduler-chosen times, and [u] receives an ack at a scheduler-chosen
      time no earlier than any delivery and no later than [t + F_ack]. The
      engine asserts this contract against the scheduler on every broadcast.
    - {b Busy senders discard.} A [Broadcast] action issued while an ack is
      pending is discarded (and counted) — message queueing belongs to the
      algorithm, as in wPAXOS's broadcast service.
    - {b Crashes} happen at adversary-chosen times and may fall mid-broadcast:
      deliveries from the crashed node scheduled at or after the crash time
      are cancelled, so some neighbors receive the in-flight message and
      others do not (Sec 2's non-atomicity). Crashed nodes take no further
      steps and receive nothing.
    - {b Recoveries} model amnesiac restart: at its scheduled time a crashed
      node rejoins with {e fresh} state (its [init] runs again, actions and
      all) and a bumped incarnation number. Everything still in flight to or
      from the previous incarnation — deliveries and the pending ack — is
      recognised as stale and dropped, so a new incarnation never observes
      its predecessor's traffic. Crash/recovery schedules are validated up
      front: per node they must alternate crash < recover < crash < ... with
      strictly increasing times.
    - {b Link faults} ([drop]) and {b stutter windows} ([stutter]) are
      predicate hooks consulted per event: [drop] eats an otherwise-due
      delivery (counted in [link_dropped]) without touching the sender's
      ack — the abstract MAC layer's guarantee is exactly what a loss window
      suspends; [stutter] lets a node's handlers run (it receives, its state
      evolves) but suppresses the actions they return (counted in
      [stuttered]). Both compose with every scheduler unchanged; [Fault]
      (lib/fault) compiles declarative plans into these hooks.
    - {b Zero-time local computation}: handlers run at the event's timestamp;
      all elapsed time comes from the scheduler.
    - {b Interference mode} (scheduler with [contention_stretch]): the
      engine tracks, incrementally, how many of each node's neighbors are
      mid-broadcast, and shifts every plan by the scheduler's stretch of
      the sender's local contention — the effective ack bound becomes
      [F_ack + stretch]. Tracking is O(degree) per transmission start/end
      and O(1) per read; with the hook absent the pre-existing hot path
      runs unchanged, and a hook returning 0 (zero contention, or
      [interference ~alpha:0]) leaves every event byte-identical to the
      base scheduler's run. The metrics this mode adds under [?obs] are
      {!Obs.Event.metrics}'s to define.
    - {b Topology deltas} ([topo_deltas]): churn/mobility events applied
      in place to a private copy of the graph (priority 5, after every
      other kind of the tick).
    - Simultaneous events are processed deterministically: crashes, then
      recoveries, then deliveries, then acks; FIFO within a class.
    - {b The event queue} is a {!Bucket_queue} keyed by (tick, kind): a
      ring of FIFOs, one per key, spanning the current tick and the next
      5 F_ack, plus an overflow min-heap of ints. Sec 2 puts every receive and ack
      within F_ack of its broadcast, and the interference stretch's
      default cap is 4 F_ack, so almost every event the engine schedules
      lands in the ring and costs O(1) to add and pop. Pre-scheduled
      crashes, recoveries, injections and topology deltas, and any larger
      stretch, wait in the overflow. The tie rule is insertion order, as
      in a single heap: when one key has entries in both parts, the
      overflow's were added first and pop first. A queued event is an int
      descriptor: its kind is the key's low bits, and its node plus up to
      three ints (incarnation stamps, sender, payload, edge) sit in a
      pooled slot that is freed when the event pops. A delivery carries no
      message. Sec 2 allows a sender one broadcast in flight (a broadcast
      issued before the ack is discarded), so a delivery that survives the
      stale-incarnation and crash checks belongs to its sender's current
      broadcast, and the engine keeps that broadcast's message in a
      per-sender slot, set when the broadcast is accepted. At a steady
      queue depth, scheduling and popping an event allocate nothing.
    - {b Influence} (who could have heard from whom) is not tracked
      separately: with [?provenance] the run records its causal DAG, and
      influence is a forward fold over it (each [Broadcast] vertex carries its
      sender's origin set, each [Deliver] unions it into the receiver's) —
      how [Lowerbound.Partition] measures Thm 3.10's bound.

    The engine never interprets messages; it moves them. Consensus-specific
    checking lives in [Consensus.Checker]. *)

type outcome = {
  decisions : (int * int) option array;
      (** per node, first [(value, time)] decided, if any *)
  extra_decides : (int * int * int) list;
      (** (node, value, time) for decide actions after a node's first with a
          {e different} value — irrevocability violations, should be [] *)
  crashed : bool array;
  incarnations : int array;
      (** per node, how many times it recovered (0 = original incarnation) *)
  broadcasts : int;  (** broadcasts accepted by the MAC layer *)
  deliveries : int;  (** message deliveries performed *)
  discarded : int;  (** broadcasts attempted while busy *)
  dropped : int;  (** deliveries cancelled by crashes or stale incarnations *)
  link_dropped : int;  (** deliveries eaten by the [drop] fault hook *)
  stuttered : int;  (** actions suppressed by the [stutter] fault hook *)
  suppressed : int;
      (** deliveries eaten by the [substitute] adversary hook (Byzantine
          selective silence) *)
  substituted : int;
      (** deliveries whose payload the [substitute] adversary hook replaced
          (Byzantine equivocation / forgery) *)
  max_ids_per_message : int;
  unreliable_deliveries : int;
      (** deliveries the scheduler granted on unreliable edges *)
  injected : int;
      (** injection events handed to [on_inject] (scheduled injections whose
          node was down at pop time are counted in [dropped] instead) *)
  topo_changes : int;
      (** topology deltas applied (churn/mobility events from
          [?topo_deltas]) *)
  end_time : int;  (** time of the last processed event *)
  events_processed : int;
  hit_max_time : bool;  (** true when stopped by the [max_time] guard *)
  trace : Trace.entry list;  (** empty unless [record_trace] *)
}

(** [decision_times outcome] is each non-crashed node's decision time (nodes
    that never decided are omitted). *)
val decision_times : outcome -> int list

(** [latest_decision outcome] is the maximum decision time, or [None] when no
    node decided. *)
val latest_decision : outcome -> int option

(** [run algorithm ~topology ~scheduler ~inputs ...] executes the algorithm
    on every node until all non-crashed nodes have decided and the event
    queue drains, or until [max_time].

    The three recorders ([provenance], [record_trace], [obs]) are folds
    over one {!Obs.Event} stream the engine emits, and purely observational: no recorder changes scheduling, handler inputs or any
    outcome field, so identical seeded runs record identical traces, DAGs
    and metrics whether or not the others are on.

    @param identities per-node identities; default dense unique ids [0..n-1].
    @param inputs initial consensus values, one per node.
    @param give_n whether [ctx.n] is provided to nodes (default [true];
      Thm 3.9's victims run with [false]).
    @param give_diameter whether [ctx.diameter] is provided (default
      [false]).
    @param crashes adversarial crash schedule as [(node, time)] pairs.
    @param recoveries amnesiac-restart schedule as [(node, time)] pairs;
      each recovery must follow a strictly earlier crash of the same node
      (per-node alternation is validated, see module preamble).
    @param drop per-delivery link-fault predicate; [true] eats the delivery.
    @param stutter per-event predicate; while [true] for a node, its
      handlers run but their actions are suppressed.
    @param substitute the Byzantine-adversary hook, consulted once per
      otherwise-due delivery (after crash/stale/link-fault filtering):
      [substitute ~now ~sender ~receiver msg] returns [Some msg'] to deliver
      [msg'] in place of [msg] — returning a {e physically} different value
      counts in [substituted] (equivocation: the hook may answer differently
      per receiver of the same broadcast) — or [None] to silently eat the
      delivery (counted in [suppressed], selective silence). The sender's
      ack is never delayed or withheld: the MAC layer kept its delivery
      contract, the {e transmitter} lied. [lib/byz] compiles Byzantine
      strategies into this hook.
    @param injections external inputs as [(node, time, payload)] triples —
      client submits in the SMR sense. Each is scheduled as an event (after
      any delivery/ack of the same tick) and handed to [on_inject] on the
      target node's current state; actions returned go through the normal
      fault-aware application. An injection whose node is crashed at pop
      time is lost (counted in [dropped]); without an [on_inject] handler
      injections are inert.
    @param on_inject handler for injection payloads, running in the target
      node's context like any other handler.
    @param topo_deltas churn/mobility schedule as [(time, delta)] pairs:
      each delta is applied {e in place} at its timestamp (after every
      delivery, ack and injection of the tick — event priority 5, so runs
      without deltas keep their exact event order). The engine works on a
      private {!Topology.copy} whenever the schedule is non-empty, so the
      caller's topology is never mutated. Deliveries already scheduled
      over a removed edge still land (the message was on the wire);
      subsequent broadcasts see the new neighbor set. [ctx.degree] and
      [ctx.diameter] snapshot the initial graph. A delta with a negative
      time, an endpoint outside [[0, n)] or a self-loop raises when [run]
      is called; adding a present edge or removing an absent one raises
      at application time.
    @param clock a cell the engine keeps equal to the current event time —
      lets callbacks buried inside the algorithm (e.g. an SMR apply hook)
      timestamp occurrences without threading [now] through every layer.
    @param max_time stop popping events after this time (default
      [1_000_000]).
    @param stop_when_all_decided stop early once every live node decided
      (default [true]; set [false] to let protocols drain, e.g. to observe
      post-decision message complexity).
    @param provenance a caller-owned {!Obs.Provenance} DAG the run appends
      its causal vertices to; {!Obs.Provenance.observer} defines which
      vertices and their causes. [Trace.Delivered] entries carry their
      broadcast's vertex id while a DAG is collected.
    @param record_trace keep a {!Trace} (see {!Trace.observer}); [pp_msg]
      renders payloads.
    @param unreliable a second graph of {e unreliable} edges (disjoint from
      the reliable topology): the scheduler's [unreliable_plan] may deliver a
      broadcast to any subset of the sender's unreliable neighbors within
      the broadcast window, and the ack never waits for them — the dual-graph
      variant of the abstract MAC layer the paper's Sec 2 sets aside and
      Sec 5 poses as an open question.
    @param obs a metrics registry the run instruments itself into; the
      [engine_*] family is {!Obs.Event.metrics}'s.
    @raise Invalid_argument if [inputs] length mismatches the topology, if an
      unreliable edge duplicates a reliable one, if the crash/recovery
      schedule is malformed (out-of-range node, negative time, duplicate
      crash of the same incarnation, recovery without or at the same instant
      as a crash), if an injection or a topology delta names a node out of
      range or a negative time, if a delta is a self-loop, or if the
      scheduler violates its contract. *)
val run :
  ?identities:Node_id.t array ->
  ?give_n:bool ->
  ?give_diameter:bool ->
  ?crashes:(int * int) list ->
  ?recoveries:(int * int) list ->
  ?drop:(now:int -> sender:int -> receiver:int -> bool) ->
  ?stutter:(now:int -> node:int -> bool) ->
  ?substitute:(now:int -> sender:int -> receiver:int -> 'm -> 'm option) ->
  ?injections:(int * int * int) list ->
  ?on_inject:
    (now:int -> payload:int -> Algorithm.ctx -> 's -> 'm Algorithm.action list) ->
  ?topo_deltas:(int * Topology.delta) list ->
  ?clock:int ref ->
  ?max_time:int ->
  ?stop_when_all_decided:bool ->
  ?provenance:Obs.Provenance.t ->
  ?record_trace:bool ->
  ?pp_msg:('m -> string) ->
  ?unreliable:Topology.t ->
  ?obs:Obs.Metrics.registry ->
  ('s, 'm) Algorithm.t ->
  topology:Topology.t ->
  scheduler:Scheduler.t ->
  inputs:int array ->
  outcome
