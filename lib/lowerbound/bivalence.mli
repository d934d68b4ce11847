(** Machine-checking the FLP-style argument of Sec 3.1 (Thm 3.2).

    The impossibility proof restricts attention to {e valid steps}: every
    sending node's next step is forced — deliver its in-flight message to
    the {e smallest} node that has not yet received it, or, once every live
    neighbor has it, receive the ack. The only non-determinism left is
    {e which node} steps next (plus crash timing), which makes the execution
    tree finitely branching and, for terminating algorithms, finite — so
    valency ("which decision values are still reachable") is computable by
    memoized exhaustive search.

    The configurations, steps and keys are {!Mcheck.Explore}'s (fingerprint
    hooks when the algorithm has them, else the digest of the marshalled
    state, so algorithm state must contain no functions); this module
    walks them with {!Mcheck.Explore.valid_step} and provides the searches
    behind experiment E7:

    - classify initial configurations (a {e bivalent} initial configuration
      exists for mixed inputs — the FLP Lemma-2 analogue);
    - measure how long bivalence persists along crash-free executions;
    - with a crash budget, search for executions that break {e termination}
      (a blocked configuration with undecided live nodes) or {e agreement}
      (two different decided values) — for our two-phase algorithm the
      former exists and the latter must not, which is exactly "safety holds,
      liveness is what one crash kills". *)

type verdict =
  | Univalent of int  (** every deciding extension decides this value *)
  | Bivalent  (** both 0 and 1 remain reachable *)
  | Blocked  (** no extension reaches any decision *)

type step = Mcheck.Explore.step =
  | Deliver of { sender : int; receiver : int }
  | Ack of int
  | Crash of int

val pp_step : Format.formatter -> step -> unit

type ('s, 'm) t
(** An explorer instance: algorithm + topology + inputs, with a memo table.
    Configurations are immutable; the same instance can serve multiple
    queries. *)

(** [create algorithm ~topology ~inputs] — every node knows n but not the
    diameter, as in the paper's model.
    @raise Invalid_argument on input/topology size mismatch. *)
val create :
  ('s, 'm) Amac.Algorithm.t ->
  topology:Amac.Topology.t ->
  inputs:int array ->
  ('s, 'm) t

(** [initial_verdict t] — the valency of the initial configuration under
    crash-free valid-step extensions. *)
val initial_verdict : ('s, 'm) t -> verdict

(** Exploration statistics for crash-free valid-step executions. *)
type stats = {
  configs_by_depth : int array;  (** distinct configs first seen per depth *)
  bivalent_by_depth : int array;
  deepest_bivalent : int;  (** last depth with a bivalent config, -1 if none *)
  total_configs : int;
}

(** [explore t ~max_depth] — BFS of the crash-free valid-step execution DAG,
    classifying every configuration.
    @raise Invalid_argument if [max_depth] is negative. *)
val explore : ('s, 'm) t -> max_depth:int -> stats

(** [find_termination_violation t ~max_crashes ~max_depth] searches (DFS)
    for an execution with at most [max_crashes] crashes ending in a
    configuration with no valid steps where some live node is undecided —
    the way one crash actually kills two-phase consensus. Returns the
    violating schedule. *)
val find_termination_violation :
  ('s, 'm) t ->
  max_crashes:int ->
  max_depth:int ->
  ?max_configs:int ->
  unit ->
  step list option

(** [find_agreement_violation t ~max_crashes ~max_depth] searches for an
    execution (crashes allowed) reaching a configuration where two nodes
    decided differently. [None] = no violation found within the depth and
    [max_configs] visit budget (default 500k distinct configurations). *)
val find_agreement_violation :
  ('s, 'm) t ->
  max_crashes:int ->
  max_depth:int ->
  ?max_configs:int ->
  unit ->
  step list option

(** [check_lemma_3_1 t ~node ~search_depth] — Lemma 3.1's property at the
    initial configuration: is there a finite valid extension α' such that
    α'·s_node is bivalent? Returns the extension if found. Only meaningful
    when the initial configuration is bivalent and [node] is sending.

    Note the logic of the paper's proof: Lemma 3.1 holds for every node
    {e assuming} the algorithm tolerates one crash. For an algorithm that
    does not (e.g. two-phase), the property legitimately fails at some
    nodes — that failure is how the algorithm escapes Thm 3.2.
    @raise Invalid_argument if [node] is outside [\[0, n)]. *)
val check_lemma_3_1 :
  ('s, 'm) t -> node:int -> search_depth:int -> step list option
