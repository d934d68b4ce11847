(** Seeded schedule/crash fuzzing with counterexample shrinking — the
    consensus campaign for {!Campaign}.

    Each iteration draws a topology, inputs, [F_ack] in [\[1, 8\]], a fault
    plan holding at most 2 crashes ({!Campaign.early_crashes}: times land
    inside broadcast windows, so crash-mid-broadcast non-atomicity is
    exercised), and a random scheduler
    wrapped in {!Amac.Scheduler.record}. The run goes through
    {!Consensus.Runner.run} and is judged by
    {!Consensus.Checker.safety_violations} (termination optionally too).

    On failure the recorded decision list makes the whole execution {e
    data}: a {!case} (topology kind + n + inputs + fault plan + decision
    list) replays deterministically via {!Amac.Scheduler.replay}, and the
    shrinker delta-debugs it — dropping nodes, shrinking the fault plan
    ({!shrink_plan}), truncating and flattening scheduler decisions,
    canonicalising inputs — keeping a mutation only while some violation
    survives. The result is a minimal reproducer plus the [(seed, iteration)]
    pair that found it. *)

type topo_kind = Clique | Line | Ring | Star | Random_graph of int

type case = {
  kind : topo_kind;
  n : int;
  fack : int;  (** recorded for reporting; replay recomputes its own bound *)
  inputs : int array;
  faults : Fault.plan;
      (** the drawn crashes, plus the rest of a drawn plan when
          [config.faults] is set *)
  plan : Amac.Scheduler.decision list;
}

(** Sizes for fault-plan generation. Recoveries pair with generated
    crashes; loss windows land on distinct edges; partition windows are
    mutually disjoint; stutters hit distinct nodes — so generated plans are
    valid by construction (and double-checked by {!Fault.validate}). *)
type fault_profile = {
  max_recoveries : int;  (** how many crashed nodes may restart *)
  max_loss_windows : int;  (** per-edge bounded loss windows *)
  max_partitions : int;  (** partition-and-heal episodes *)
  max_stutters : int;  (** per-node stutter windows *)
  max_window : int;  (** maximum width of any window *)
}

type config = {
  max_n : int;  (** nodes drawn from [\[2, max_n\]] *)
  kinds : topo_kind list;  (** topology families to draw from *)
  check_termination : bool;
      (** when true, a completed run (not cut off by [max_time]) in which a
          live node never decided also counts as a failure *)
  max_time : int;
  faults : fault_profile option;
      (** [Some profile] switches on fault-plan fuzzing: each case's plan
          gains recoveries, loss windows, partitions and stutters on top of
          its crashes *)
}

(** n ≤ 6, cliques and lines, safety-only, no fault plans. *)
val default : config

(** ≤ 2 recoveries, ≤ 2 loss windows, ≤ 1 partition, ≤ 1 stutter, windows
    up to 40 ticks. *)
val default_fault_profile : fault_profile

(** [gen_faults rng ~n ~fack ~crashes profile] — with [None], the plan is
    [crashes] as drawn ({!Campaign.early_crashes}). With [Some profile] a
    prefix of the crashes gains paired recoveries, and the plan gains
    per-edge loss windows, disjoint partition episodes and per-node
    stutters — all within a horizon scaled by [fack], validated by
    {!Fault.validate}. *)
val gen_faults :
  Amac.Rng.t ->
  n:int ->
  fack:int ->
  crashes:Fault.plan ->
  fault_profile option ->
  Fault.plan

(** {2 Shrinking a fault plan} *)

(** [restrict_plan plan n'] keeps the events that name only nodes below
    [n'] (partition cuts are thinned, and dropped when they become empty or
    cover every node). *)
val restrict_plan : Fault.plan -> int -> Fault.plan

(** [shrink_plan plan] — the plan's shrink candidates, in order: each event
    dropped; each crash dropped with its node's recoveries; every event
    pulled toward 0 (all the way, then halfway; windows keep width >= 1);
    each partition cut thinned by one node. On a crash-only plan: drop each
    crash, then pull each crash time toward 0. *)
val shrink_plan : Fault.plan -> Fault.plan list

(** [campaign config algorithm] — fuzz [algorithm] under [config]. The
    shrinker replays through {!run_case} and judges with the campaign's
    failure predicate: safety violations, plus termination ones when
    [config.check_termination] and the run was not cut off by [max_time].
    The printer renders the shrunk case, its violations and the timeline
    of a traced replay. *)
val campaign :
  config ->
  ('s, 'm) Amac.Algorithm.t ->
  (case, Consensus.Checker.violation) Campaign.t

(** [run_case config algorithm case] replays a case through
    {!Amac.Scheduler.replay}. [?obs] instruments the replay (see
    {!Consensus.Runner.run}) — how a counterexample's metrics snapshot is
    produced for failure artifacts. *)
val run_case :
  ?record_trace:bool ->
  ?obs:Obs.Metrics.registry ->
  config ->
  ('s, 'm) Amac.Algorithm.t ->
  case ->
  Consensus.Runner.result

(** [pp_counterexample pp_case ~timeline] — the layout every
    consensus-checker campaign prints: the iteration, the case, its
    violations, then [timeline case]. *)
val pp_counterexample :
  (Format.formatter -> 'case -> unit) ->
  timeline:('case -> string) ->
  Format.formatter ->
  ('case, Consensus.Checker.violation) Campaign.counterexample ->
  unit
