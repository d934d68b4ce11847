(** Declarative fault injection: adversarial timelines over the abstract MAC
    layer.

    A {!plan} is a list of typed fault events. {!validate} rejects malformed
    plans up front; {!compile} turns a valid plan into the crash/recovery
    schedules and per-event predicates ({!Amac.Engine.run}'s [?crashes],
    [?recoveries], [?drop], [?stutter]) that the engine interprets — so every
    scheduler composes with every plan unchanged.

    In the paper's terms: [Crash] is the fail-stop adversary of Sec 2
    (non-atomic mid-broadcast crashes included); [Recover] extends it to
    amnesiac crash-recovery — the node rejoins with fresh state and re-runs
    [init], as in the crash-recovery models the follow-up work (Newport &
    Robinson 2018; Zhang & Tseng 2024) studies; [Link_drop] suspends the
    acknowledged-broadcast guarantee on one edge for a bounded window (the
    delivery is eaten, the sender's ack is not delayed — the sender cannot
    tell); [Partition] is the same as a bulk link fault across a cut; and
    [Stutter] freezes a node's {e outputs} while its state keeps evolving,
    modelling a node that is slow to act but not crashed. *)

type event =
  | Crash of { node : int; at : int }
  | Recover of { node : int; at : int }
      (** amnesiac restart: fresh state, [init] re-runs, a new incarnation *)
  | Link_drop of { edge : int * int; from_ : int; until : int }
      (** deliveries across [edge] (undirected) in [\[from_, until)] are
          silently dropped and counted *)
  | Partition of { cut : int list; from_ : int; until : int }
      (** deliveries straddling the cut (one endpoint in [cut], one outside)
          in [\[from_, until)] are dropped — partition-and-heal *)
  | Stutter of { node : int; from_ : int; until : int }
      (** in [\[from_, until)] the node receives and its state evolves, but
          the actions its handlers return are suppressed *)

type plan = event list

val pp : Format.formatter -> plan -> unit

val to_string : plan -> string

(** [crashes plan] — the [(node, time)] crash schedule. *)
val crashes : plan -> (int * int) list

(** [rolling_restart ~nodes ~start ~down_for ~gap] — a staggered
    crash/recover pair per node: node [i] in [nodes] crashes at
    [start + i*gap] and recovers [down_for] ticks later. [gap > down_for]
    keeps at most one node down at a time (the production rolling-restart
    shape); smaller gaps overlap the outages.
    @raise Invalid_argument if [down_for < 1], [gap < 1] or [start < 0]. *)
val rolling_restart :
  nodes:int list -> start:int -> down_for:int -> gap:int -> plan

(** [validate ~n plan] checks the plan against an [n]-node system.

    @raise Invalid_argument (with a ["Fault.validate: ..."] message) on:
      out-of-range nodes or self-loop edges; negative times; empty or
      inverted windows; duplicate crash of the same incarnation; recover
      before any crash; crash and recover of one node at the same instant;
      an empty or all-node partition cut or duplicate nodes in it;
      overlapping loss windows on the same (undirected) edge; overlapping
      stutter windows on the same node; two partitions in force at once. *)
val validate : n:int -> plan -> unit

type compiled = {
  crashes : (int * int) list;
  recoveries : (int * int) list;
  drop : (now:int -> sender:int -> receiver:int -> bool) option;
  stutter : (now:int -> node:int -> bool) option;
}

(** [compile ~n plan] validates and lowers the plan to engine hooks. All
    window predicates are half-open: a window [\[from_, until)] is active at
    [from_] and inactive at [until]. *)
val compile : n:int -> plan -> compiled

(** [record ~obs plan] mirrors the plan into the metrics registry: a
    [fault_events_total] counter per event kind ([kind] label: [crash],
    [recover], [link_drop], [partition], [stutter]) and the plan's horizon
    as the [fault_plan_horizon] gauge: the first instant after which no
    injected fault is active (windows closed, scheduled recoveries done; an
    unrecovered crash is permanent and adds nothing). An empty plan records
    nothing, so only a faulted run's snapshot has [fault_*] samples.
    [Consensus.Runner.run], [Workload.run] and [Shard_workload.run] call
    this whenever they are given [~obs]. *)
val record : obs:Obs.Metrics.registry -> plan -> unit
