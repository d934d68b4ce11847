(** Open-loop, Zipf-keyed workload driver for sharded multi-group SMR.

    The sharded counterpart of {!Workload}: it mints client commands,
    samples each command's key from a {!Zipf} distribution, routes it
    to the owning group ({!Shard.route}), and injects it open-loop at a
    random replica with exponential inter-arrival gaps. After the last
    arrival it schedules flush markers at every (node, group) so
    trailing sub-batch commands still replicate. Safety is judged by
    the sharded contract ({!Shard.check}) after the run. *)

type result = {
  outcome : Amac.Engine.outcome;
  handle : Shard.handle;
  violations : Smr_checker.shard_violation list;
  issued : int;  (** commands minted *)
  submitted : int;  (** distinct commands staged at a live replica *)
  committed : int;  (** distinct commands applied somewhere *)
  batches : int;  (** batch containers minted *)
  latencies : int array;  (** per-command submit->first-apply, sorted *)
  group_commits : int array;  (** per-group max commit index *)
  last_commit : int;
      (** tick of the final first-apply anywhere — the workload-completion
          clock. [outcome.end_time] additionally includes the post-commit
          quiescence tail (lease expiry, heartbeat settling), which is
          near-constant in [groups] and would mask scaling if used as the
          throughput denominator. *)
}

(** [run ~topology ~scheduler ~seed ~cmds ~groups ()] drives one run.
    [batch] (default 4) is the flush threshold, [mean_gap] (default 2)
    the mean inter-arrival gap in ticks, [burst] (default 1) how many
    commands share each arrival — offered load is burst/mean_gap
    commands per tick, the lever that pushes past one group's drain
    capacity. [affinity] (default false) makes each command land at a
    replica of its owning group — the shard-aware-client model; without
    it the whole burst lands at one uniform node, so per-(node, group)
    staging buffers fill [groups] times slower and batching starves.
    [key_space]/[theta] set the Zipf key universe (defaults 256 keys,
    YCSB skew). [faults] follows {!Workload.run}. *)
val run :
  ?window:int ->
  ?batch:int ->
  ?mean_gap:int ->
  ?burst:int ->
  ?affinity:bool ->
  ?key_space:int ->
  ?theta:float ->
  ?faults:Fault.plan ->
  ?max_time:int ->
  ?record_trace:bool ->
  ?obs:Obs.Metrics.registry ->
  ?members_of:(int -> int list) ->
  topology:Amac.Topology.t ->
  scheduler:Amac.Scheduler.t ->
  seed:int ->
  cmds:int ->
  groups:int ->
  unit ->
  result
