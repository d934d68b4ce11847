(** Seeded fuzzing of multi-hop consensus under interference, run by
    {!Mcheck.Campaign}: each iteration draws a {!Topo_gen} spec (grid /
    RGG / clustered mesh) and seed, an interference strength ([alpha],
    optionally a cap), a churn or mobility schedule, and a full fault plan,
    then runs hardened wPAXOS through {!Consensus.Runner.run} with
    {!Amac.Scheduler.interference} — judged by
    {!Consensus.Checker.safety_violations} only, since under adversarial
    plans and contention-stretched acks termination is conditional.

    Same reproducibility story as {!Smr_fuzz}: every stochastic choice
    derives from the iteration's rng, so a failing iteration number {e is}
    the reproducer — no record/replay or shrinking step. *)

type config = {
  max_time : int;
  faults : Mcheck.Fuzz.fault_profile option;
      (** [Some profile] grows the drawn crashes into a full fault plan
          via {!Mcheck.Fuzz.gen_faults} (recoveries, loss windows,
          partitions, stutters) *)
}

(** Fault plans on (the mcheck default profile). Every iteration draws
    F_ack from [\[1, 4\]], a per-contender ack stretch [alpha] from
    [\[0, 3\]] (0 is the no-interference draw, kept on purpose) and at
    most 2 crashes. Topology sizes are fixed inside the generator (grids up to
    5×5, RGGs up to 24 nodes, clustered meshes up to 4×5+2) so a campaign
    stays CI-sized. *)
val default : config

(** One iteration's drawn parameters. *)
type case = {
  spec : string;  (** {!Topo_gen.name} of the drawn spec *)
  topo_seed : int;
  n : int;
  fack : int;
  alpha : int;
  cap : int option;  (** [None] — the scheduler's default [4 * fack] cap *)
  deltas : int;  (** drawn churn/mobility schedule length *)
  faults : Fault.plan;  (** the drawn crashes, and more under a profile *)
}

val campaign : config -> (case, Consensus.Checker.violation) Mcheck.Campaign.t
