(** Verification of the consensus properties over an engine outcome.

    Checks the three properties of Sec 2 — agreement, validity,
    termination — plus irrevocability of the decide action. Used by every
    test and by the impossibility demonstrations, where a {e failing} report
    is the expected artifact (the whole point of E5/E6 is exhibiting an
    agreement violation). *)

(** A machine-readable property violation. The model checker's shrinker and
    both [Mcheck] engines consume these; [problems] below is their rendered
    form. *)
type violation =
  | Agreement_violation of { values : int list }
      (** two or more distinct values decided *)
  | Validity_violation of { values : int list; inputs : int list }
      (** decided values outside the input set *)
  | Termination_violation of { nodes : int list }
      (** non-crashed nodes that never decided *)
  | Irrevocability_violation of { node : int; value : int; time : int }
      (** a node re-decided a different value *)

type report = {
  agreement : bool;  (** no two nodes decided different values *)
  validity : bool;  (** every decided value was some node's input *)
  termination : bool;  (** every non-crashed node decided *)
  irrevocability : bool;  (** no node decided twice with different values *)
  decided_values : int list;  (** distinct decided values, sorted *)
  violations : violation list;  (** machine-readable, empty when ok *)
  problems : string list;  (** human-readable explanations, empty when ok *)
}

(** [check ?honest ~inputs outcome] — [inputs] must be the array the run
    started with.

    [?honest] is the Byzantine-aware switch: when given, every property
    quantifies over honest nodes only — agreement and validity range over
    honest decisions and honest inputs, termination excuses Byzantine nodes,
    and irrevocability ignores their re-decides. A Byzantine node
    "deciding" a third value is the adversary talking, not a violation; two
    {e honest} nodes disagreeing still is (test_checker pins both
    directions, guarding against a silently vacuous checker). Omitted, all
    nodes are honest and this is the classic checker.
    @raise Invalid_argument if the mask length mismatches the outcome. *)
val check : ?honest:bool array -> inputs:int array -> Amac.Engine.outcome -> report

(** [ok report] — all four properties hold. *)
val ok : report -> bool

(** [safe report] — agreement, validity and irrevocability hold (termination
    not required); the right notion when a run was cut off by [max_time]. *)
val safe : report -> bool

(** [safety_violations report] = the agreement / validity / irrevocability
    [violations], without termination (which a [max_time] cutoff or a crash
    against a deterministic algorithm produces legitimately, Thm 3.2) — the
    fuzzer's failure predicate. *)
val safety_violations : report -> violation list

val pp_violation : Format.formatter -> violation -> unit

val pp : Format.formatter -> report -> unit

(** {1 Degradation under fault plans}

    Under an adversarial fault plan, termination is not a pass/fail
    property — the plan may legitimately prevent some nodes from ever
    deciding. Safety, on the other hand, is unconditional. A
    [degradation] report asserts safety and downgrades liveness to measured
    metrics, so "graceful degradation" is a checkable artifact: tests pin
    [safe = true] under {e any} plan and then assert quantitative floors
    ([decided_fraction], decide-latency bounds, retransmission counts)
    appropriate to the algorithm and plan at hand. *)

type degradation = {
  safe : bool;  (** agreement + validity + irrevocability *)
  safety_violations : violation list;  (** empty iff [safe] *)
  correct : int list;  (** nodes up at the end of the run *)
  decided_correct : int;  (** how many of [correct] decided *)
  correct_total : int;
  decided_fraction : float;  (** [decided_correct / correct_total]; 1.0 if
                                 no node is correct *)
  decide_times : int list;  (** correct nodes' decide times, sorted *)
  max_decide_time : int option;  (** last correct decide, if any *)
  broadcasts : int;
      (** total broadcasts accepted — against a fault-free baseline this
          measures retransmission overhead *)
  link_dropped : int;  (** deliveries eaten by injected link faults *)
  stuttered : int;  (** actions suppressed by stutter windows *)
  max_incarnation : int;  (** highest per-node recovery count *)
}

(** [degrade ?honest report outcome] — safety from [report], {!check}'s
    verdict on [outcome], and liveness as metrics. Note "correct" here
    means up at the {e end} of the run, matching the engine's [crashed]
    array: a crashed-then-recovered node
    counts as correct (its incarnation is live) and is expected to decide
    under a hardened algorithm once faults quiesce. With [?honest],
    Byzantine nodes are excluded from [correct] — their silence is the
    adversary's business, not degradation. *)
val degrade :
  ?honest:bool array -> report -> Amac.Engine.outcome -> degradation
