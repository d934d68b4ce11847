(** Concrete {!Model.adapter}s for the algorithms whose constructor-level
    attacks a campaign or test runs. Each models {e authenticated} channels
    — embedded sender ids are preserved by [mutate] and set to [~self] by
    [forge] — so the adversary can equivocate and forge but not
    impersonate, matching the Tseng–Sardina threat model.

    Other algorithms (wpaxos, ben_or, multi_value compositions) have no
    constructor-level adapter; they get {!Model.generic_adapter} — an
    omission/replay adversary only, which is honestly weaker. *)

val two_phase : Consensus.Two_phase.msg Model.adapter

val byz_consensus : Consensus.Byz_consensus.msg Model.adapter
