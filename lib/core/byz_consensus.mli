(** Byzantine-tolerant binary consensus over acknowledged local broadcast —
    after Tseng & Sardina, "Byzantine Consensus in Abstract MAC Layer"
    (arXiv:2311.03034), which ports BV-broadcast-style protocols into the
    source paper's model. Requires knowledge of [n] and tolerates
    [f = floor((n-1)/3)] Byzantine nodes ([n >= 3f + 1]).

    Per round [r], with current estimate [est]:

    + {b BV-broadcast}: broadcast [EST(r, est)]. On [EST(r, v)] from
      [f + 1] {e distinct} senders, echo [EST(r, v)] (at least one honest
      node backs [v], so echoing cannot launder a Byzantine-only value —
      this is where validity against forged payloads lives). On [2f + 1]
      distinct senders, BV-accept [v] into [bin_values(r)].
    + {b AUX}: once [bin_values(r)] is non-empty, broadcast [AUX(r, w)]
      for one accepted [w]. Wait for AUX messages from [n - f] distinct
      senders whose values are all BV-accepted. Let [V] be that value set:
      if [V = {v}] and [v = coin(r)], {e decide} [v] and keep [est = v];
      if [V = {v}] only, [est := v]; otherwise [est := coin(r)].

    Agreement rests on quorum intersection: two [(n - f)]-quorums share
    [n - 2f >= f + 1] senders, hence an honest one, so rounds cannot
    decide conflicting values, and a decided value is every honest node's
    estimate from the next round on. All counting is deduplicated {e per
    sender} — the abstract MAC layer authenticates the transmitter, so an
    equivocator gets one vote per (round, value) no matter how many
    conflicting copies it delivers to different recipients.

    [coin(r)] is a deterministic function of [(seed, round)] shared by all
    nodes — a perfect common coin against our oblivious schedulers (the
    schedule is fixed before the run). An adversary that could read the
    coin and adapt the schedule could delay termination indefinitely;
    safety never depends on the coin.

    Decided nodes keep participating in every later round so that honest
    laggards can still assemble quorums after Byzantine nodes go silent;
    the engine's all-decided cutoff ends the run.

    Binary consensus: inputs must be 0 or 1.
    @raise Invalid_argument at init if [ctx.n] is absent or the input is
    non-binary. *)

type body =
  | Est of { round : int; value : int }
  | Aux of { round : int; value : int }

type msg = { sender : int; body : body }
(** Exposed so the Byzantine adapter in [lib/byz] can mutate rounds and
    values — the protocol must (and does) shrug those off. *)

type state

(** [make ~seed ()] — [seed] keys the shared deterministic coin. *)
val make : seed:int -> unit -> (state, msg) Amac.Algorithm.t
