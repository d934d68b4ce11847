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
  max_fack : int;  (** F_ack drawn from [\[1, max_fack\]] *)
  max_groups : int;  (** groups drawn from [\[1, max_groups\]] *)
  max_batch : int;  (** batch threshold drawn from [\[1, max_batch\]] *)
  max_crashes : int;
  cmds : int;
  max_time : int;
}

(** n ≤ 6, F_ack ≤ 6, ≤ 4 groups, batch ≤ 6, ≤ 2 crashes, 40 commands. *)
val default : config

(** One iteration's drawn parameters. *)
type case = {
  n : int;
  fack : int;
  groups : int;
  batch : int;
  window : int;
  crashes : (int * int) list;
}

val campaign : config -> (case, Smr_checker.shard_violation) Mcheck.Campaign.t
