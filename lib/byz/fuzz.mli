(** Byzantine-strategy fuzzing with counterexample shrinking.

    The adversarial sibling of {!Mcheck.Fuzz}, run by {!Mcheck.Campaign}:
    each iteration draws a clique size, inputs, [F_ack], an optional clean
    crash pattern (crashes may hit honest {e or} Byzantine nodes — the
    mixed regime), a Byzantine {!Model.strategy} sized by the config's
    {!Model.profile}, and a recorded random schedule. The algorithm runs
    {e wrapped} ({!Model.wrap}), with the strategy's tampers compiled into
    the engine's [?substitute] hook and the honest mask handed to the
    checker — so a violation means the adversary genuinely broke the
    {e honest} nodes.

    On failure the case is delta-debugged: besides {!Mcheck.Fuzz}'s passes
    (fewer nodes, fewer crashes, truncated/flattened schedule, canonical
    inputs) the shrinker attacks the strategy itself — dropping Byzantine
    nodes and tampers, thinning victim sets, narrowing windows, zeroing
    node-local behaviors — so the surviving reproducer names the minimal
    adversary: typically one Byzantine node, one tamper window, two
    victims. *)

type case = {
  n : int;  (** always a clique *)
  fack : int;
  inputs : int array;
  crashes : (int * int) list;
  strategy : Model.strategy;
  plan : Amac.Scheduler.decision list;
}

val pp_case : Format.formatter -> case -> unit

type config = {
  min_n : int;  (** nodes drawn from [\[min_n, max_n\]] *)
  max_n : int;
  max_fack : int;
  max_crashes : int;  (** clean crashes on top of the strategy *)
  profile : Model.profile;  (** sizes {!Model.gen_strategy} *)
  cap_f : bool;
      (** cap the drawn Byzantine count at [(n-1)/3] — the tolerance bound
          of an f-resilient protocol; a campaign that exceeds the budget
          finds "violations" that indict nobody. When the cap reaches 0
          (n ≤ 3) the iteration runs Byzantine-free (pure schedule/crash
          fuzz). *)
  agreement_only : bool;
      (** restrict the failure predicate to agreement violations among
          honest nodes. Against a non-Byzantine-tolerant target,
          honest-input validity breaks degenerately (the adversary's
          ordinary protocol participation already injects an "invalid"
          value — no attack needed); demanding an honest split makes the
          found strategy earn its counterexample. *)
  give_n : bool;
  check_termination : bool;
      (** when true, a completed run in which a live {e honest} node never
          decided also counts as a failure *)
  max_time : int;
}

(** n ∈ [3, 6], F_ack ≤ 6, ≤ 1 crash, default profile, safety-only. *)
val default : config

(** [campaign config algorithm adapter] — fuzz strategies against
    [algorithm], forged and mutated through [adapter]. The failure
    predicate is over honest-masked reports: safety violations (agreement
    only under [config.agreement_only]), plus termination ones when
    [config.check_termination] and the run was not cut off. The printer is
    {!Mcheck.Fuzz.pp_counterexample}'s layout. *)
val campaign :
  config ->
  ('s, 'm) Amac.Algorithm.t ->
  'm Model.adapter ->
  (case, Consensus.Checker.violation) Mcheck.Campaign.t

(** [run_case config algorithm adapter case] replays a case through
    {!Amac.Scheduler.replay}, wrapped and honest-masked. *)
val run_case :
  ?record_trace:bool ->
  ?obs:Obs.Metrics.registry ->
  config ->
  ('s, 'm) Amac.Algorithm.t ->
  'm Model.adapter ->
  case ->
  Consensus.Runner.result
