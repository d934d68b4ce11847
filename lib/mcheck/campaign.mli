(** One runner for every seeded fuzz campaign.

    A campaign is a value: a generator that draws one iteration's case from
    an rng, runs it and judges it; optionally a shrinker; and a printer.
    {!run} owns everything else:

    - iteration [i] draws from [derive ~seed ~iteration:i], so a
      [(seed, iteration)] pair alone regenerates its case;
    - iterations are scanned in waves of contiguous chunks over a {!Par}
      pool, and a wave with failures reports the {e minimum} failing
      iteration — the one a sequential scan stops at, since every earlier
      iteration was scanned clean. The outcome is therefore byte-identical
      at any job count;
    - the failing case is shrunk on the calling domain by a greedy fixpoint
      of the shrinker's passes under a replay budget;
    - an exception raised while generating an iteration is re-raised as
      {!Raised}, naming that iteration, at any job count. *)

type ('case, 'v) counterexample = {
  iteration : int;  (** which iteration failed — regenerate via {!derive} *)
  case : 'case;  (** the shrunk reproducer ([original] when unshrunk) *)
  original : 'case;  (** the case as generated *)
  violations : 'v list;  (** of [case] *)
}

type ('case, 'v) outcome = {
  iterations_run : int;
  counterexample : ('case, 'v) counterexample option;
      (** [None] — all iterations clean *)
}

(** How a failing case is made smaller. [replay] re-judges a candidate; a
    candidate whose replay raises [Invalid_argument] (e.g. a fault plan the
    validator rejects) is discarded. Each pass maps the current case to its
    candidates, tried in order; the first that still fails is kept. *)
type ('case, 'v) shrinker = {
  replay : 'case -> 'v list;
  passes : ('case -> 'case list) list;
}

type ('case, 'v) t = {
  generate : Amac.Rng.t -> 'case * 'v list;
      (** draw from the iteration's rng, run, judge; [[]] = clean *)
  shrink : ('case, 'v) shrinker option;
      (** [None] reports the failing draw unshrunk *)
  pp : Format.formatter -> ('case, 'v) counterexample -> unit;
}

(** An exception escaped [generate] at [iteration]; [exn] is the original,
    re-raised with its backtrace. *)
exception Raised of { iteration : int; exn : exn }

(** [derive ~seed ~iteration] is iteration [iteration]'s generator:
    splitmix-style mixing, so [(seed, iteration)] pairs give uncorrelated
    streams without the caller managing one. *)
val derive : seed:int -> iteration:int -> Amac.Rng.t

(** [early_crashes rng ~n ~fack ~max] draws up to [max] clean crashes, as
    {!Fault.Crash} events ordered by node, at most one per node, with times
    in [\[0, 2 (2 fack + 1)\]]: every algorithm broadcasts at t = 0, so
    these land mid-broadcast (Sec 2's non-atomic crashes) or interrupt the
    first follow-up phases, where leader election is most delicate. *)
val early_crashes : Amac.Rng.t -> n:int -> fack:int -> max:int -> Fault.plan

(** {2 Shared shrink candidates} *)

(** Prefixes of lengths 0, len/4, len/2, 3len/4 and len-1 (those shorter
    than the list). *)
val truncations : 'a list -> 'a list list

(** Every delay set to 1 — all decisions at once, then one at a time. A
    decision that survives flattening was not load-bearing. *)
val flattenings :
  Amac.Scheduler.decision list -> Amac.Scheduler.decision list list

(** Each input 1 flipped to 0, one at a time. *)
val input_flips : int array -> int array list

(** [run ?jobs ?progress ?max_shrink_runs campaign ~iterations ~seed]
    scans until a violation is found (then shrinks and stops) or
    [iterations] clean iterations pass.

    A pool of [jobs] (default 1) domains lives for the call. [?progress]
    is called with each scanned iteration's 0-based index, in order, up to
    the reported one. [?max_shrink_runs] (default 2000) bounds the
    shrinker's replays.
    @raise Raised if [generate] raises. *)
val run :
  ?jobs:int ->
  ?progress:(int -> unit) ->
  ?max_shrink_runs:int ->
  ('case, 'v) t ->
  iterations:int ->
  seed:int ->
  ('case, 'v) outcome
