(** Critical-path extraction over a {!Provenance} DAG.

    Each [Decide] vertex has a unique chain of [cause] pointers back to a
    root ([Boot] or [Inject]): a chain of information flow without which
    that decision could not have happened at that time. Cause times are
    monotone along the chain, so the edge latencies telescope — a path's
    edge latencies sum to [decided_at - root_time] exactly (an invariant
    the tests assert).

    Edges are classified by what the interval was spent on:

    - a [Broadcast → Deliver] edge is MAC-layer {e message latency} and
      counts as one {e hop};
    - a [Broadcast → Ack] edge is MAC-layer {e ack waiting} (the sender
      blocked until its acknowledgement — a send-and-wait step's cost;
      acks are leaves, so these never appear on decide paths);
    - every other edge (info → broadcast, info → decide) is {e local}: its
      latency is the {e residence time} between a node learning something
      and relaying it — under the model's zero-time computation this is
      pure MAC-serialization wait (the node's own earlier sends draining),
      which is exactly the contention cost the abstract MAC layer models.

    [hops × per-hop latency] is directly comparable to the paper's
    O(D·F_ack) decision bound: on a line of diameter D, wPAXOS paths show
    hops growing linearly in D (bench B12 gates this exactly).

    Each MAC edge's latency is attributed to the {e broadcasting} node —
    the node whose transmission the path waited on — giving a per-node
    share of critical-path time; the node with the largest share is the
    path's bottleneck (for wPAXOS: the leader, quantified). *)

type edge_kind = Local | Message | Ack_wait

type edge = {
  e_from : int;  (** causing vertex id *)
  e_to : int;  (** caused vertex id *)
  e_kind : edge_kind;
  e_latency : int;  (** ticks: time(e_to) - time(e_from) *)
  e_owner : int;  (** node the latency is attributed to *)
}

type path = {
  decide_id : int;
  node : int;  (** deciding node *)
  value : int;  (** decided value *)
  decided_at : int;
  root_id : int;
  root_time : int;
  total : int;  (** decided_at - root_time = sum of edge latencies *)
  hops : int;  (** [Message] edges on the path *)
  ack_waits : int;  (** [Ack_wait] edges on the path *)
  edges : edge list;  (** root-to-decide order *)
  shares : (int * int) list;  (** node -> attributed ticks, sorted by node *)
}

(** One path per [Decide] vertex, in vertex-id (= decision) order. *)
val paths : Provenance.t -> path list

(** Mean MAC-edge latency on the path: [total / (hops + ack_waits)] (0 when
    the path has no MAC edges). Comparable to the scheduler's F_ack. *)
val per_hop : path -> float

(** The node holding the largest share of critical-path time, with its
    fraction of [total]. [None] for zero-length paths. Ties break to the
    smaller node id. *)
val bottleneck : path -> (int * float) option

(** Deterministic JSON: [{"paths":[...]}] with per-path edges and shares.
    The paths and each path's edges are lazy [Json.Seq] arrays: their
    objects are built only as they are rendered. *)
val to_json : path list -> Json.t

(** Human-readable multi-line report. *)
val render : path list -> string
