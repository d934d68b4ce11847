(** Deterministic client-traffic generator for the {!Smr} replicated log.

    A workload turns one seed into a full client schedule, drives it through
    an {!Amac.Engine} run of the SMR algorithm, and measures per-command
    commit latency against the simulation clock. Two shapes:

    - {e open loop}: [cmds] commands arrive at exponentially distributed
      gaps (mean [mean_gap] ticks, inverse-CDF over the seeded generator —
      a Poisson process in discrete time), each at a uniformly drawn
      replica, regardless of how the log keeps up. Arrivals are engine
      {e injections}; one landing on a crashed replica is lost, exactly
      like a client talking to a dead server.
    - {e closed loop}: [clients_per_node] clients per replica each keep
      exactly one command outstanding — the next submit happens inside the
      {!Smr} apply callback of the previous one, at the replica the client
      is attached to, until [cmds] commands have been issued in total.

    Latency for a command is first-apply time (at {e any} replica) minus
    submit time, both read off the engine's clock. Everything — gaps,
    placement, the scheduler's choices — derives from explicit seeds, so a
    run is replayable bit-for-bit. *)

type mode =
  | Open_loop of { mean_gap : int }  (** mean inter-arrival gap, ticks *)
  | Closed_loop of { clients_per_node : int }

type result = {
  outcome : Amac.Engine.outcome;
  handle : Smr.handle;  (** for further inspection / checking *)
  violations : Smr_checker.violation list;  (** [] = safety held *)
  issued : int;  (** commands the generator produced *)
  submitted : int;  (** commands that reached a live replica *)
  committed : int;  (** distinct commands applied at >= 1 replica *)
  commit_index_min : int;
  commit_index_max : int;
  latencies : int array;  (** sorted commit latencies, one per committed *)
  queue_latencies : int array;
      (** sorted queueing phases (submit to the command's first [Propose]
          anywhere: forwarding, leader election, pipeline-window waits),
          one per committed command *)
  replicate_latencies : int array;
      (** sorted replication phases (first [Propose] to first apply: the
          Paxos round trips), one per committed command *)
  epoch_min : int;  (** fewest completed reconfigurations at any replica *)
  epoch_max : int;
  suspicions : int;  (** leader suspicions raised, summed over replicas *)
  snapshots_taken : int;
  snapshots_installed : int;
}

(** [quantile sorted ~q] — the [q]-quantile (nearest-rank) of an
    ascending array such as [result.latencies], or [None] when it is
    empty. Shared with {!Shard_workload}.
    @raise Invalid_argument if [q] is outside (0, 1]. *)
val quantile : int array -> q:float -> int option

(** [exp_gap rng ~mean_gap] — one exponential inter-arrival gap of mean
    [mean_gap] ticks (inverse CDF over one uniform draw), floored at 1.
    Shared with {!Shard_workload}. *)
val exp_gap : Amac.Rng.t -> mean_gap:int -> int

(** Histogram buckets sized for tick-scale commit latencies (shared with
    the sharded driver, {!Shard_workload}). *)
val latency_buckets : float list

(** [run ~topology ~scheduler ~seed ~cmds ~mode ()] builds the SMR
    algorithm, generates the client schedule from [seed], and drains the
    engine ([stop_when_all_decided:false]).

    @param window SMR pipelining window (default 4).
    @param faults a declarative {!Fault.plan}, compiled as in
      {!Consensus.Runner.run}.
    @param obs a metrics registry: the engine self-instruments, the fault
      plan is mirrored ({!Fault.record}), and the workload adds
      [smr_submitted_total] / [smr_committed_total] counters, an
      [smr_commit_latency_ticks] histogram plus its
      [smr_queue_latency_ticks] / [smr_replicate_latency_ticks] breakdown
      (split at each command's first [Propose]), lifecycle counters
      ([smr_fd_suspicions_total], [smr_snapshots_taken_total],
      [smr_snapshots_installed_total], [smr_epoch_max]) and per-node
      detector gauges.
    @param members initial voting configuration (see {!Smr.make}).
    @param reconfigs scheduled membership changes, one [(node, at, members)]
      triple each: the joint command is injected at [node] at time [at] and
      decided through the log (joint consensus). An injection landing on a
      crashed replica is lost, like any client request.
    @param compact_every log compaction watermark interval (see
      {!Smr.make}; default: never compact).
    @param patience the ◇P detector's fixed silence budget, passed through
      to {!Smr.make} (default [4n + 16]).
    @param repair_retries straggler repair budget, passed through to
      {!Smr.make} (default 8).
    @param on_suspect called whenever a replica's detector suspects its
      current leader, with the engine clock — B11 measures detection
      latency with it.
    @param provenance a caller-owned causal DAG the engine appends to (see
      {!Amac.Engine.run}); SMR runs produce no engine-level decides, so the
      DAG holds boot/inject/broadcast/deliver/ack vertices — the raw
      material for energy accounting and [amac_sim profile --smr].
    @raise Invalid_argument on [cmds < 0], [Open_loop] with [mean_gap < 1],
      or [Closed_loop] with [clients_per_node < 1]. *)
val run :
  ?window:int ->
  ?faults:Fault.plan ->
  ?max_time:int ->
  ?record_trace:bool ->
  ?obs:Obs.Metrics.registry ->
  ?provenance:Obs.Provenance.t ->
  ?members:int list ->
  ?reconfigs:(int * int * int list) list ->
  ?compact_every:int ->
  ?patience:int ->
  ?repair_retries:int ->
  ?on_suspect:(now:int -> node:int -> suspect:int -> unit) ->
  topology:Amac.Topology.t ->
  scheduler:Amac.Scheduler.t ->
  seed:int ->
  cmds:int ->
  mode:mode ->
  unit ->
  result
