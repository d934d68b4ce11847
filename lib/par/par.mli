(** A small fixed-size domain pool with work-stealing deques and a
    deterministic result merge.

    OCaml 5 gives the repo real parallelism; this module is the only place
    that spawns domains. The design is deliberately minimal — the
    verification workloads that use it (fuzz campaigns, frontier
    expansion, bench sweeps) submit {e coarse} tasks, so a single pool
    lock around the deques costs nothing measurable while keeping the
    code obviously correct.

    Scheduling: [map] deals tasks round-robin onto per-worker deques;
    each worker pops its own deque LIFO and, when empty, steals the
    {e oldest} task from a sibling (classic work-stealing ends). The
    caller participates as worker 0, so a pool of size 1 spawns no
    domains and runs inline — the deterministic baseline that parallel
    runs are diffed against.

    Determinism contract: [map] writes result [i] from input [i]
    regardless of which domain executed it, so the output array order
    never depends on the schedule. Anything built on [map] whose tasks
    are pure functions of their input is byte-deterministic at any pool
    size.

    One [map] may run at a time per pool (callers are expected to own
    their pool); tasks must not themselves call [map] on the same pool. *)

type pool

(** [with_pool ~domains f] runs [f] on a pool of total parallelism
    [domains] (clamped to >= 1): [domains - 1] spawned worker domains plus
    the calling thread. The workers are joined when [f] returns or
    raises; the pool must not escape [f]. *)
val with_pool : domains:int -> (pool -> 'a) -> 'a

(** Total parallelism, including the caller. *)
val size : pool -> int

(** [map pool f arr] — [Array.map f arr], elements evaluated in parallel,
    results in input order. The first exception raised by [f] (lowest
    index) is re-raised after every task has settled. Inline when
    [size pool = 1]. *)
val map : pool -> ('a -> 'b) -> 'a array -> 'b array
