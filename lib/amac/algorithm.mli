(** The programming interface algorithms implement against the MAC layer.

    An algorithm is an event-driven state machine per node: it is initialised
    once, then reacts to message deliveries and to acknowledgments of its own
    broadcasts. Everything the paper's model lets a node observe is in these
    three callbacks; in particular there is {e no clock} and {e no sender
    metadata} — if an algorithm needs the sender's identity it must put the
    id inside the message (anonymous algorithms, by definition, cannot).

    Handlers mutate their node-local state in place and return the actions to
    take. Local computation is free (zero simulated time), as in Sec 2. *)

(** What a node knows a priori. The paper's lower bounds are exactly about
    which of these fields are available: Thm 3.3 removes [id]
    ([Node_id.Anonymous]), Thm 3.9 removes [n], and the two-phase algorithm
    (Sec 4.1) needs neither [n] nor [diameter]. *)
type ctx = {
  id : Node_id.t;  (** this node's identity (or [Anonymous]) *)
  n : int option;  (** network size, when that knowledge is granted *)
  diameter : int option;  (** network diameter, when granted *)
  degree : int;  (** own neighbor count — local information, always known *)
  input : int;  (** this node's initial consensus value (0 or 1) *)
}

type 'm action =
  | Broadcast of 'm
      (** Hand a message to the MAC layer. If a broadcast is already in
          flight (no ack yet), the layer {e discards} this message — Sec 2's
          rule. Queueing is the algorithm's job (cf. wPAXOS's broadcast
          service). *)
  | Decide of int  (** Perform the single irrevocable decide action. *)

(** Optional verification fast-path hooks. The model checker
    ({!Mcheck.Explore}) keys and snapshots millions of node states; an
    algorithm that provides these escapes the generic
    [Marshal]/[Digest]-based fallback:

    - [fingerprint] folds the state's {e logical} content into a
      {!Fingerprint.t}. Contract: structurally equal states (equal
      marshalled bytes) must fold equal; states the algorithm considers
      equivalent (e.g. hash tables with the same bindings in a different
      order) {e may} fold equal — that only improves deduplication.
    - [fingerprint_msg] does the same for an in-flight message.
    - [clone] is a deep copy of everything mutable in the state. Messages
      are treated as immutable and may be shared between the copies. *)
type ('s, 'm) hooks = {
  fingerprint : 's -> Fingerprint.t -> Fingerprint.t;
  fingerprint_msg : 'm -> Fingerprint.t -> Fingerprint.t;
  clone : 's -> 's;
}

type ('s, 'm) t = {
  name : string;
  init : ctx -> 's * 'm action list;
      (** Create the node's state and its first actions. *)
  on_receive : ctx -> 's -> 'm -> 'm action list;
      (** A neighbor's broadcast was delivered. *)
  on_ack : ctx -> 's -> 'm action list;
      (** The MAC layer finished this node's current broadcast; the node may
          broadcast again. *)
  msg_ids : 'm -> int;
      (** How many unique ids the message carries — the engine tracks the
          maximum to check the model's O(1)-ids-per-message restriction. *)
  hooks : ('s, 'm) hooks option;
      (** [None] = use the Marshal fallback (always correct, slow). *)
}
