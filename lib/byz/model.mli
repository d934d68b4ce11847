(** Byzantine adversary model: arbitrary node behavior as a {e wrapper}
    around an honest algorithm.

    The source paper's model is crash faults; its follow-ups take the
    adversary further — Newport & Robinson (arXiv:1810.02848) keep crashes
    but drop knowledge of n, Tseng & Sardina (arXiv:2311.03034) admit full
    Byzantine nodes. This module implements the latter threat model
    {e without touching any honest algorithm code}: a Byzantine node is an
    honest node wrapped in an adversarial shell, and the network-level
    attacks compile into the engine's [?substitute] hook.

    The adversary has two arms:

    - {b node-local behavior} ([behavior], one per Byzantine node): drop
      its own protocol broadcasts (silence), replay previously received
      messages verbatim, and inject forged payloads built by an
      [adapter]. Triggers are event {e counts}, never times — the wrapped
      state stays a pure state machine, so {!Mcheck.Explore}'s
      fingerprint-keyed search over wrapped algorithms remains sound.
    - {b delivery tampering} ([tamper] windows, compiled into
      {!Amac.Engine}'s [?substitute] hook): during a window, deliveries
      from the Byzantine sender to chosen victims are suppressed
      (selective silence) or mutated per recipient (equivocation — honest
      sender-side state is untouched, different victims see different
      payloads). The sender's own ack is never affected: the MAC layer
      acks its transmission; what the adversary corrupted is the
      {e content} observed by receivers.

    Everything is deterministic: behaviors draw from a per-node seeded
    stream, and equivocation randomness is derived per delivery from
    [(seed, time, sender, receiver)] alone, so replays and
    branch-exploring searches reproduce the identical adversary.

    {b Authentication.} The callbacks expose no sender metadata, so
    "who sent this" lives inside payloads. An adapter that keeps the
    payload's sender field equal to [~self] models {e authenticated}
    channels (the Tseng–Sardina setting — equivocate and forge, but not
    impersonate); the {!generic_adapter}'s replay arm re-broadcasts other
    nodes' messages verbatim and thus models an {e unauthenticated}
    network. Pick the adapter to pick the threat model. *)

(** Node-local adversarial behavior. [replay_period = k > 0]: every k-th
    received message triggers a verbatim re-broadcast of some previously
    seen message. [forge_period = k > 0]: every k-th received message
    triggers an adapter-forged broadcast. [drop_own]: suppress the inner
    protocol's own broadcasts entirely. Injected broadcasts obey the MAC
    layer's busy-sender discard — the adversary cannot outpace the
    layer. *)
type behavior = {
  replay_period : int;  (** 0 = never *)
  forge_period : int;  (** 0 = never *)
  drop_own : bool;
}

(** All-zero behavior: a Byzantine node that attacks only through
    delivery tampering (or not at all). *)
val honest_behavior : behavior

type tamper_kind =
  | Silence  (** suppress the delivery: selective, per-victim silence *)
  | Equivocate  (** per-recipient payload mutation via the adapter *)

type tamper = {
  node : int;  (** the Byzantine sender whose deliveries are tampered *)
  victims : int list;  (** receivers affected *)
  from_ : int;
  until : int;  (** active while [from_ <= now < until] *)
  kind : tamper_kind;
}

type strategy = {
  byz : (int * behavior) list;  (** the Byzantine nodes *)
  tampers : tamper list;  (** must name senders from [byz] *)
  seed : int;  (** keys every stream the adversary draws from *)
}

(** How to build adversarial payloads for a concrete message type.
    [mutate rng ~self msg] twists a real outgoing payload (equivocation);
    [forge rng ~self seen] fabricates a fresh payload, given the messages
    the node has seen. Keep embedded sender fields equal to [~self] to
    model authenticated channels (see above). *)
type 'm adapter = {
  mutate : Amac.Rng.t -> self:int -> 'm -> 'm;
  forge : Amac.Rng.t -> self:int -> 'm list -> 'm option;
}

(** Type-agnostic adapter: [mutate] is the identity (so [Equivocate]
    tampers degrade to no-ops) and [forge] replays a seen message
    verbatim — an omission/replay adversary that works for any ['m],
    including abstract message types. Unauthenticated: replays
    impersonate. *)
val generic_adapter : unit -> 'm adapter

type ('s, 'm) node_state = Honest of 's | Byz of ('s, 'm) byz_node

and ('s, 'm) byz_node = {
  mutable inner : 's;
  rng : Amac.Rng.t;
  mutable seen : 'm list;
  mutable recv_count : int;
  mutable ack_count : int;
  behavior : behavior;
}

type ('s, 'm) wrapped = {
  algorithm : (('s, 'm) node_state, 'm) Amac.Algorithm.t;
      (** run this in place of the honest algorithm *)
  substitute : now:int -> sender:int -> receiver:int -> 'm -> 'm option;
      (** pass to {!Amac.Engine.run} / {!Consensus.Runner.run} *)
  honest : bool array;
      (** pass to {!Consensus.Checker.check} / {!Consensus.Runner.run} *)
}

(** [wrap ~n ~adapter ~strategy algorithm] — the tentpole. Byzantine
    nodes fake a [Decide 0] at init (the engine's all-decided cutoff must
    not wait on the adversary; the honest-masked checker ignores it) and
    their inner protocol keeps running between attacks, so they remain
    protocol-plausible. The wrapper composes the inner algorithm's
    verification hooks when present: fingerprints tag Honest/Byz and fold
    the adversary's whole observable state, clones deep-copy it.

    Requires unique node ids (the wrapper must know who it is).
    @raise Invalid_argument if a strategy names an out-of-range node or
    tampers with an honest sender. *)
val wrap :
  n:int ->
  adapter:'m adapter ->
  strategy:strategy ->
  ('s, 'm) Amac.Algorithm.t ->
  ('s, 'm) wrapped

(** {1 Strategy generation (the fuzzer's raw material)} *)

(** Knobs bounding {!gen_strategy}; switching an attack family off removes
    it from the draw entirely (e.g. an equivocation-only campaign). *)
type profile = {
  max_byz : int;  (** byz count drawn from [\[1, min max_byz (n-1)\]] *)
  max_tampers : int;
  max_window : int;
  allow_silence : bool;
  allow_equivocate : bool;
  allow_replay : bool;
  allow_forge : bool;
  allow_drop_own : bool;
}

(** 1 Byzantine node, ≤ 3 tampers, windows ≤ 40 ticks, every family on. *)
val default_profile : profile

(** [gen_strategy rng ~n ~fack profile] draws a valid strategy: Byzantine
    nodes chosen uniformly, tamper windows inside the same
    [((2*fack)+1)*4] horizon as {!Mcheck.Fuzz.gen_faults}, tampers
    only on Byzantine senders with non-empty victim sets. *)
val gen_strategy : Amac.Rng.t -> n:int -> fack:int -> profile -> strategy

val pp_behavior : Format.formatter -> behavior -> unit

val pp_tamper : Format.formatter -> tamper -> unit

val pp_strategy : Format.formatter -> strategy -> unit
