(** Seeded fuzzing of the sharded multi-group log, run by
    {!Mcheck.Campaign}: random topology, scheduler, group count, batch
    threshold and crash pattern per iteration, driven open-loop with Zipf
    keys and judged by the sharded safety contract ({!Shard.check}) —
    per-group prefix agreement, cross-group exactly-once, batch atomicity.

    Same reproducibility story as {!Smr_fuzz}: every stochastic choice
    derives from the iteration's rng, so the iteration number is the
    reproducer. *)

type config = {
  max_n : int;  (** nodes drawn from [\[3, max_n\]] *)
  cmds : int;
  max_time : int;
}

(** n ≤ 6, 40 commands. Every iteration draws F_ack from [\[1, 6\]], 1–4
    groups, a batch threshold from [\[1, 6\]] and at most 2 crashes. *)
val default : config

(** One iteration's drawn parameters. *)
type case = {
  n : int;
  fack : int;
  groups : int;
  batch : int;
  window : int;
  faults : Fault.plan;  (** {!Mcheck.Campaign.early_crashes}' draw *)
}

val campaign : config -> (case, Smr_checker.shard_violation) Mcheck.Campaign.t
