(** The causal provenance DAG of one simulation run.

    Where {!Span} records {e when} things happened, provenance records {e
    why}: every vertex names the single event that caused it, so walking
    [cause] pointers from any vertex reaches the root input (a node boot or
    an injection) whose consequence it is. {!observer} folds the engine's
    {!Event} stream into one vertex per causally meaningful event, and it
    alone holds the attribution rule:

    - [Boot] — a node's [init] ran (time 0, or again on recovery); a root.
    - [Inject] — an external injection was delivered; a root.
    - [Broadcast] — a broadcast was accepted by the MAC layer (discarded
      broadcasts from busy senders get {e no} vertex); caused by the
      sender's latest {e informational} event — its most recent [Boot],
      [Inject] or [Deliver]. This is the Lamport-style attribution: the
      broadcast's content can depend on everything the node knew, and its
      latest input is the newest thing it can relay. Algorithms drain
      internal send queues from ack handlers, so attributing to the literal
      triggering event would collapse every critical path into one node's
      ack chain; with informational attribution the serialization wait
      surfaces as {e latency} on the info→[Broadcast] edge instead, and
      paths track message relays across nodes (see {!Critpath}).
    - [Deliver] — a message physically arrived at a receiver; caused by the
      sender's latest [Broadcast]. Sec 2's contract makes that the right
      one: a sender has one broadcast in flight until its ack, every
      delivery of it lands no later than the ack, and deliveries from a
      crashed or restarted sender are dropped as stale. Byzantine
      substitution does not change the cause: the vertex records what the
      wire did, not what the payload claimed.
    - [Ack] — the sender's MAC-layer acknowledgement; caused by its latest
      [Broadcast], by the same argument. A leaf: nothing is attributed to
      an ack.
    - [Decide] — a node's first decision; caused by the node's latest
      informational event.

    The DAG is acyclic by construction: a vertex's [cause] is always an
    already-recorded vertex ([cause < id]), or [-1] for roots. Recording is
    append-only and purely observational — enabling it never changes engine
    behaviour, so the determinism contract extends to the export: same seed,
    same DAG bytes. *)

type kind =
  | Boot of { incarnation : int }
  | Inject of { payload : int }
  | Broadcast
  | Deliver of { sender : int }  (** sender {e node id} (not vertex id) *)
  | Ack
  | Decide of { value : int }

type vertex = {
  id : int;  (** dense, in recording order *)
  kind : kind;
  node : int;
  time : int;  (** engine ticks *)
  cause : int;  (** vertex id of the causing event; [-1] for roots *)
}

type t

val create : unit -> t

(** [record t ~kind ~node ~time ~cause] appends a vertex and returns its id.
    @raise Invalid_argument if [cause] is neither [-1] nor an existing id
    (which would break acyclicity). *)
val record : t -> kind:kind -> node:int -> time:int -> cause:int -> int

val length : t -> int

(** @raise Invalid_argument on an out-of-range id. *)
val get : t -> int -> vertex

(** Vertex [id]'s fields, read from the store without building a {!vertex}.
    @raise Invalid_argument on an out-of-range id. *)
val kind : t -> int -> kind
val node : t -> int -> int
val time : t -> int -> int
val cause : t -> int -> int

(** In id (= recording) order. *)
val iter : (vertex -> unit) -> t -> unit

(** [observer t ~n] is the fold that appends an [n]-node run's vertices to
    [t] (attribution as in the preamble), paired with the lookup from a
    node to the vertex id of its latest accepted broadcast ([-1] before its
    first) — the cause [Amac.Trace.Delivered] entries carry. *)
val observer : t -> n:int -> 'm Event.observer * (int -> int)

(** Structural invariant check: acyclicity ([cause < id]), root kinds are
    [Boot]/[Inject] only, every [Deliver]/[Ack] is caused by a [Broadcast],
    every [Broadcast]/[Decide] is caused by an informational event
    ([Boot]/[Inject]/[Deliver]), and time is monotone along cause edges.
    Returns human-readable violations (empty = well-formed). *)
val check : t -> string list

(** Deterministic: [{"vertices":[{"id":..,"kind":..,"node":..,"t":..,
    "cause":..},...]}] with kind-specific fields ([inc], [payload], [from],
    [value]) after [kind]. The vertices are a lazy [Json.Seq] over the
    recorded vertices as of this call (vertices recorded later are not in
    it): each vertex's object is built only as it is rendered, so exporting
    never holds the DAG as a second tree. *)
val to_json : t -> Json.t
