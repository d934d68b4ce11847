(** Message schedulers for the abstract MAC layer.

    The model (Sec 2) makes all non-determinism live in the scheduler: when a
    node broadcasts, the scheduler picks a delivery time for every neighbor
    and an acknowledgment time, subject to the single fairness constraint
    that the ack arrives within [F_ack] of the broadcast, and to the model
    guarantee that every neighbor receives the message {e before} the ack.

    Each lower-bound proof in the paper names a concrete scheduler; those are
    provided here under the paper's names ([synchronous], Sec 3.2;
    [delayed_cut] generalising the semi-synchronous scheduler of Sec 3.3;
    [max_delay], Thm 3.10), alongside stochastic schedulers for the upper
    bound experiments. *)

(** The scheduler's answer for one broadcast: a receive time per neighbor and
    the ack time. The engine asserts, for every entry,
    [now < receive <= ack_at <= now + fack]. *)
type plan = {
  receives : (int * int) list;  (** (neighbor index, delivery time) *)
  ack_at : int;
}

type t = {
  name : string;
  fack : int;  (** the bound the engine asserts; unknown to algorithms *)
  plan : now:int -> sender:int -> neighbors:int list -> plan;
  unreliable_plan :
    (now:int -> sender:int -> candidates:int list -> ack_at:int ->
     (int * int) list)
    option;
      (** When the engine runs with an {e unreliable} second graph (some
          abstract MAC layer definitions include one — see Sec 2's remark;
          the paper's upper bounds leave it as an open question), this
          decides which unreliable neighbors of a broadcast also receive it
          and when (times must lie in [(now, ack_at\]]). [None] (the
          default) delivers on no unreliable edge, the adversary's
          prerogative. *)
  contention_stretch : (contention:int -> int) option;
      (** Interference-aware mode (the SINR-realization setting of
          Halldórsson–Holzer–Lynch, arXiv:1505.04514): when present, the
          engine measures the sender's {e local contention} — how many of
          its neighbors are mid-broadcast at the instant it transmits —
          and shifts every delivery and the ack of the plan by
          [contention_stretch ~contention] ticks. The base plan is still
          asserted against [fack] {e before} the shift, so the effective
          ack bound in this mode is [fack + stretch]: the MAC layer's
          ack guarantee degrades gracefully with channel load instead of
          being a load-independent constant. Must be non-negative, and 0
          at zero contention for the degenerate mode to coincide with the
          base scheduler. [None] (the default) is the paper's
          contention-free abstract MAC layer. *)
}

(** [make ~name ~fack plan] wraps an arbitrary planning function (with no
    unreliable-edge deliveries). *)
val make :
  name:string ->
  fack:int ->
  (now:int -> sender:int -> neighbors:int list -> plan) ->
  t

(** [interference ?name ?cap ~alpha t] attaches the linear contention
    stretch [min cap (alpha * contention)] to [t]: each concurrently
    transmitting neighbor of a sender delays its deliveries and ack by
    [alpha] further ticks, up to [cap] (default [4 * fack]). [alpha = 0]
    is the degenerate mode: the engine's contention tracking runs but
    every plan is byte-identical to [t]'s. [?name] overrides the derived
    ["<base>+sinr(a=..,cap=..)"] display name (labels in metrics snapshots
    follow it). @raise Invalid_argument if [alpha < 0] or [cap < 0]. *)
val interference : ?name:string -> ?cap:int -> alpha:int -> t -> t

(** {1 Recording and replay}

    The model checker's shrinker needs schedules as {e data}: [record] wraps
    any scheduler so that every plan it emits is captured as a [decision]
    (delays relative to the broadcast time, one decision per accepted
    broadcast, in broadcast order); [replay] turns a decision list back into
    a scheduler. Replaying an unmodified recording against the same
    deterministic algorithm reproduces the run event-for-event; the shrinker
    then mutates the list (lowering delays, truncating) and replays. *)

type decision = {
  ack_delay : int;  (** ack time minus broadcast time *)
  delays : (int * int) list;  (** (neighbor, delivery delay) *)
}

(** [record t] is [(t', recorded)]: [t'] plans exactly as [t] while
    appending each plan to an internal log; [recorded ()] returns the log so
    far, in broadcast order. *)
val record : t -> t * (unit -> decision list)

(** [replay decisions] consumes one decision per broadcast, in order. Replay
    is {e total}: delays are clamped into [(now, ack\]], neighbors missing
    from a decision receive at the ack, and once the list is exhausted every
    broadcast completes uniformly after [fallback_delay] (default 1) — so a
    decision list mutated by the shrinker, or applied to a smaller topology,
    is always a contract-respecting scheduler. [F_ack] is the largest ack
    delay in the list (at least [fallback_delay]).
    @raise Invalid_argument if [fallback_delay < 1]. *)
val replay : ?fallback_delay:int -> decision list -> t

(** [bernoulli_unreliable rng ~p t] delivers on each unreliable edge
    independently with probability [p], at a uniform time within the
    broadcast's window. @raise Invalid_argument unless [0 <= p <= 1]. *)
val bernoulli_unreliable : Rng.t -> p:float -> t -> t

(** The lock-step scheduler of Sec 3.2: every delivery and the ack land one
    tick after the broadcast, so executions advance in synchronous rounds.
    [F_ack = 1]. *)
val synchronous : t

(** [fixed ~delay] delivers and acks exactly [delay] ticks after the
    broadcast. [F_ack = delay]. *)
val fixed : delay:int -> t

(** [max_delay ~fack] always takes the full allowed delay — the Thm 3.10
    adversary. *)
val max_delay : fack:int -> t

(** [random rng ~fack] draws an ack delay uniformly from [\[1, fack\]] and
    each delivery uniformly from [\[1, ack delay\]]. Deterministic in
    [rng]. *)
val random : Rng.t -> fack:int -> t

(** [jittered rng ~fack ~spread] delivers around [fack/2] with +-[spread]
    jitter, modeling a moderately loaded CSMA channel. *)
val jittered : Rng.t -> fack:int -> spread:int -> t

(** [delayed_cut ~base_fack ~until ~cut] behaves like [fixed ~delay:1] except
    that deliveries on directed edges for which [cut ~sender ~receiver] holds
    are postponed to time [max (now + 1) until]. This is the paper's
    semi-synchronous scheduler (Sec 3.3) and the split scheduler of Sec 3.2:
    the adversary silences a frontier for a long prefix while both sides run
    synchronously. The resulting [fack] is [max base_fack (until + 1)] — the
    adversary chooses the (node-invisible) bound large enough to cover the
    silence. *)
val delayed_cut :
  base_fack:int -> until:int -> cut:(sender:int -> receiver:int -> bool) -> t

(** [bursty ~fack ~fast_len ~slow_len] alternates epochs: broadcasts issued
    during a fast epoch complete in one tick, those issued during a slow
    epoch take the full [fack] — a duty-cycled / periodically congested
    channel. @raise Invalid_argument if either epoch is shorter than a
    tick. *)
val bursty : fack:int -> fast_len:int -> slow_len:int -> t

(** [slow_node ~fack ~node] delivers everything at one tick except messages
    from [node], which take the full [fack]: a single straggler, the
    situation where PAXOS's majority-progress property matters (Sec 1). *)
val slow_node : fack:int -> node:int -> t
