(** One-call experiment driver: run an algorithm and verify the outcome.

    Bundles {!Amac.Engine.run} with {!Checker.check} and the workload
    generators used across tests, examples and the bench harness. *)

type result = {
  outcome : Amac.Engine.outcome;
  report : Checker.report;
  degradation : Checker.degradation;
      (** safety asserted, liveness measured — the right lens under a fault
          plan (under no faults it simply reports full liveness) *)
  decision_time : int option;
      (** time of the last decision, i.e. the run's consensus latency *)
}

(** [run algorithm ~topology ~scheduler ~inputs ...] — parameters as in
    {!Amac.Engine.run}.

    @param faults a declarative {!Fault.plan}, the one way to crash, restart
      or cut off nodes; it is validated and compiled ({!Fault.compile}).
      @raise Invalid_argument on a malformed plan.
    @param substitute the engine's Byzantine-adversary hook (per-recipient
      payload substitution / suppression, see {!Amac.Engine.run}); [Byz.wrap]
      produces it from a strategy.
    @param honest honest-node mask handed to {!Checker.check} /
      {!Checker.degrade}: consensus properties and liveness metrics quantify
      over honest nodes only.
    @param topo_deltas a churn/mobility schedule applied mid-run (see
      {!Amac.Engine.run}); {!Topo_gen} produces well-formed schedules.
    @param obs a metrics registry: the engine instruments itself into it
      (see {!Amac.Engine.run}), the fault plan is mirrored as
      [fault_events_total] counters ({!Fault.record}), and the checker's
      degradation verdict lands as [checker_safe] /
      [checker_decided_fraction] / [checker_max_incarnation] /
      [checker_max_decide_time] gauges labelled by algorithm. *)
val run :
  ?identities:Amac.Node_id.t array ->
  ?give_n:bool ->
  ?give_diameter:bool ->
  ?faults:Fault.plan ->
  ?substitute:(now:int -> sender:int -> receiver:int -> 'm -> 'm option) ->
  ?honest:bool array ->
  ?max_time:int ->
  ?provenance:Obs.Provenance.t ->
  ?record_trace:bool ->
  ?pp_msg:('m -> string) ->
  ?unreliable:Amac.Topology.t ->
  ?topo_deltas:(int * Amac.Topology.delta) list ->
  ?obs:Obs.Metrics.registry ->
  ('s, 'm) Amac.Algorithm.t ->
  topology:Amac.Topology.t ->
  scheduler:Amac.Scheduler.t ->
  inputs:int array ->
  result

(** {1 Workload (input-vector) generators} *)

(** [inputs_all ~n v] — every node starts with [v]. *)
val inputs_all : n:int -> int -> int array

(** [inputs_alternating ~n] — 0,1,0,1,... *)
val inputs_alternating : n:int -> int array

(** [inputs_random rng ~n] — independent fair coin flips. *)
val inputs_random : Amac.Rng.t -> n:int -> int array

(** [inputs_halves ~n] — first half 0, second half 1 (the partition-argument
    workload). *)
val inputs_halves : n:int -> int array
