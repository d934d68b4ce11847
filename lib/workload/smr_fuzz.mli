(** Seeded fuzzing of the replicated log, run by {!Mcheck.Campaign}: random
    topology, scheduler, workload shape and (optionally) fault plan per
    iteration, judged by {!Smr_checker} — safety only, since under an
    adversarial plan a straggler's log may legitimately end short.

    Unlike {!Mcheck.Fuzz} there is no record/replay step: every stochastic
    choice (including the scheduler's) derives from the iteration's rng, so
    re-running the same [(seed, iteration)] pair regenerates the identical
    execution — the iteration number {e is} the reproducer. No shrinking
    either; a failing iteration reports its drawn parameters and
    violations. *)

type config = {
  max_n : int;  (** nodes drawn from [\[3, max_n\]] *)
  max_fack : int;  (** F_ack drawn from [\[1, max_fack\]] *)
  max_crashes : int;  (** crash-pattern size drawn from [\[0, max_crashes\]] *)
  cmds : int;  (** commands per iteration *)
  max_time : int;
  faults : Mcheck.Fuzz.fault_profile option;
      (** [Some profile] turns the crashes into a full fault plan via
          {!Mcheck.Fuzz.gen_faults} (recoveries, loss windows, partitions,
          stutters) *)
  lifecycle : bool;
      (** additionally draw aggressive compaction watermarks and mid-run
          joint-consensus reconfigurations to arbitrary membership subsets
          (off by default, keeping the baseline corpus bit-for-bit) *)
}

(** n ≤ 6, F_ack ≤ 6, ≤ 2 crashes, 30 commands, fault plans on (the mcheck
    default profile), lifecycle draws off. *)
val default : config

(** One iteration's drawn parameters. *)
type case = {
  n : int;
  fack : int;
  window : int;
  faults : Fault.plan;
  crashes : (int * int) list;
  compact_every : int option;
  reconfigs : (int * int * int list) list;
}

val campaign : config -> (case, Smr_checker.violation) Mcheck.Campaign.t
