(* Satellite: the hardening matrix. Every consensus algorithm in the repo
   crossed with every scheduler family and three fault regimes, one cell =
   one seeded run, judged through Checker.degradation: safety is asserted
   unconditionally wherever the algorithm's model admits the regime;
   liveness (every correct node decides) only where the regime guarantees
   it.

   Expectations per cell are explicit table entries, not recomputed — a
   behavior change in any algorithm/scheduler/fault combination moves a
   cell and fails loudly here. [Documented_unsafe] marks combinations
   outside the algorithm's fault model (amnesiac recovery under protocols
   that assume crash-stop): the cell still runs — pinning that the engine
   and checker handle it — but its verdict is recorded, not asserted. *)

type expectation =
  | Safe_and_live  (** safety + every correct node decides *)
  | Safe_only  (** safety; liveness not guaranteed under this regime *)
  | Documented_unsafe of string
      (** outside the algorithm's fault model; run it, don't assert *)

type cell_alg =
  | Alg : {
      name : string;
      make : unit -> ('s, 'm) Amac.Algorithm.t;
      topology : Amac.Topology.t;
      inputs : int array;
      crash_tolerant : bool;
          (** false = any crash regime is outside the model *)
      adapter : 'm Byz.Model.adapter;
          (** how the adversary axis forges/mutates this message type;
              [generic_adapter] for abstract payloads (replay-only) *)
    }
      -> cell_alg

let algorithms =
  [
    Alg
      {
        name = "two_phase";
        make = (fun () -> Consensus.Two_phase.algorithm);
        topology = Amac.Topology.clique 4;
        inputs = [| 0; 1; 0; 1 |];
        crash_tolerant = true;
        adapter = Byz.Adapters.two_phase;
      };
    Alg
      {
        name = "wpaxos";
        make = (fun () -> Consensus.Wpaxos.make ());
        topology = Amac.Topology.line 5;
        inputs = [| 1; 0; 1; 0; 1 |];
        crash_tolerant = true;
        adapter = Byz.Model.generic_adapter ();
      };
    Alg
      {
        name = "ben_or";
        make = (fun () -> Consensus.Ben_or.make ~seed:17 ());
        topology = Amac.Topology.clique 3;
        inputs = [| 0; 1; 1 |];
        crash_tolerant = true;
        adapter = Byz.Model.generic_adapter ();
      };
    Alg
      {
        name = "multi_value";
        make =
          (fun () -> Consensus.Multi_value.make ~bits:2 Consensus.Two_phase.algorithm);
        topology = Amac.Topology.clique 4;
        inputs = [| 3; 1; 0; 2 |];
        crash_tolerant = true;
        adapter = Byz.Model.generic_adapter ();
      };
    Alg
      {
        name = "counter_race";
        make = (fun () -> Counter_race.make ());
        topology = Amac.Topology.clique 4;
        inputs = [| 0; 1; 1; 0 |];
        crash_tolerant = true;
        adapter = Counter_race.adapter;
      };
    Alg
      {
        (* n = 7 so f = 2: the byzf regime is genuinely stronger than
           byz1, and the mixed regime (1 Byzantine + 1 crash) stays inside
           the f-budget. *)
        name = "byz_consensus";
        make = (fun () -> Consensus.Byz_consensus.make ~seed:23 ());
        topology = Amac.Topology.clique 7;
        inputs = [| 0; 1; 1; 0; 1; 0; 1 |];
        crash_tolerant = true;
        adapter = Byz.Adapters.byz_consensus;
      };
  ]

let schedulers =
  [
    ("synchronous", fun _rng -> Amac.Scheduler.synchronous);
    ("random", fun rng -> Amac.Scheduler.random rng ~fack:2);
    ("max_delay", fun _rng -> Amac.Scheduler.max_delay ~fack:2);
    ("bursty", fun _rng -> Amac.Scheduler.bursty ~fack:2 ~fast_len:20 ~slow_len:8);
    ("slow_node", fun _rng -> Amac.Scheduler.slow_node ~fack:2 ~node:1);
  ]

(* The three regimes. Crash-recovery and loss windows use small, early
   windows so they intersect the protocols' first phases. *)
let fault_regimes =
  [
    ("none", []);
    ( "crash_recovery",
      [
        Fault.Crash { node = 1; at = 3 };
        Fault.Recover { node = 1; at = 30 };
      ] );
    ("loss_window", [ Fault.Link_drop { edge = (0, 1); from_ = 0; until = 25 } ]);
  ]

(* The expectation table. Defaults: fault-free cells are safe and live;
   faulted cells are safe-only (liveness becomes a measurement, cf.
   Checker.degradation). Exceptions are spelled out:

   - ben_or / two_phase / multi_value under crash-recovery: these protocols
     assume crash-stop; an amnesiac reincarnation re-enters with fresh
     state (and for ben_or a reset round counter), which can double-count
     votes. wPAXOS is the one algorithm hardened for recovery (PR 3). The
     cells run — engine semantics and checker coverage — but their verdict
     is documented, not asserted.

   - two_phase / multi_value under loss windows: two-phase counts on the
     abstract MAC layer's delivery guarantee — the very thing a loss
     window suspends — and has no retransmission, so a dropped phase
     message can split the decision (multi_value over two_phase hits this
     on the synchronous schedule: the nodes cut off from a bit round
     decide a different composite value). Quorum-intersection protocols
     (wpaxos, ben_or) keep safety under loss and only degrade in
     liveness, which the Safe_only cells pin. *)
let expectation ~alg ~fault =
  match (alg, fault) with
  | _, "none" -> Safe_and_live
  | ( ("two_phase" | "ben_or" | "multi_value" | "counter_race" | "byz_consensus"),
      "crash_recovery" ) ->
      Documented_unsafe
        "crash-stop protocol: amnesiac reincarnation may double-vote"
  | ("two_phase" | "multi_value"), "loss_window" ->
      Documented_unsafe
        "no retransmission: a dropped phase message can split the decision"
  | _, _ -> Safe_only

(* ------------------------------------------------------------------ *)
(* The adversary axis: every algorithm crossed with every scheduler and
   three Byzantine regimes, run wrapped (Byz.Model.wrap) with the
   strategy's tampers compiled into the engine's substitute hook and the
   honest mask handed to the checker. The canonical per-cell strategy is
   deterministic: the highest-numbered nodes turn Byzantine, each with
   replay+forge behaviors and an equivocation window against the low half
   of the ring. *)

let byz_regimes =
  [
    (* one Byzantine node *)
    ("byz1", (fun (_n : int) -> 1), []);
    (* the full tolerance budget f = (n-1)/3, floored at 1 *)
    ("byzf", (fun n -> max 1 ((n - 1) / 3)), []);
    (* mixed: one Byzantine node plus an honest crash *)
    ("byz_crash", (fun (_n : int) -> 1), [ Fault.Crash { node = 0; at = 5 } ]);
  ]

let byz_strategy ~n ~count ~seed =
  let behavior =
    { Byz.Model.replay_period = 3; forge_period = 2; drop_own = false }
  in
  let byz = List.init count (fun i -> (n - 1 - i, behavior)) in
  let victims = List.init (max 1 (n / 2)) Fun.id in
  let tampers =
    List.map
      (fun (id, _) ->
        {
          Byz.Model.node = id;
          victims;
          from_ = 0;
          until = 40;
          kind = Byz.Model.Equivocate;
        })
      byz
  in
  { Byz.Model.byz; tampers; seed }

(* The adversary-axis expectation table, pinned empirically like the crash
   one. Only byz_consensus (n >= 3f+1, quorum-intersection with dedup by
   sender) is in-model against Byzantine nodes; every crash-tolerant
   protocol is documented-unsafe here — equivocation splits two_phase,
   forged Decided claims sink ben_or, inflated counters race counter_race,
   and the generic replay adversary impersonates under wpaxos/multi_value's
   unauthenticated payloads. *)
let byz_expectation ~alg ~regime =
  match (alg, regime) with
  | "byz_consensus", _ -> Safe_and_live
  | "two_phase", _ ->
      Documented_unsafe "equivocation splits the two honest phase quorums"
  | "ben_or", _ -> Documented_unsafe "forged Decided claims are trusted"
  | "counter_race", _ ->
      Documented_unsafe "forged counter values win the race"
  | ("wpaxos" | "multi_value"), _ ->
      Documented_unsafe "unauthenticated replay impersonates honest nodes"
  | _, _ -> Safe_only

let run_byz_cell (Alg a) (sched_name, scheduler_of) (regime_name, count_of, faults)
    =
  let n = Array.length a.inputs in
  let cell = Printf.sprintf "%s/%s/%s" a.name sched_name regime_name in
  let seed = Hashtbl.hash cell land 0xFFFF in
  let scheduler = scheduler_of (Amac.Rng.create seed) in
  let strategy = byz_strategy ~n ~count:(count_of n) ~seed in
  let wrapped = Byz.Model.wrap ~n ~adapter:a.adapter ~strategy (a.make ()) in
  let result =
    Consensus.Runner.run wrapped.Byz.Model.algorithm ~topology:a.topology
      ~scheduler ~inputs:a.inputs ~faults
      ~substitute:wrapped.Byz.Model.substitute ~honest:wrapped.Byz.Model.honest
      ~max_time:60_000
  in
  let d = result.Consensus.Runner.degradation in
  match byz_expectation ~alg:a.name ~regime:regime_name with
  | Safe_and_live ->
      Alcotest.(check bool) (cell ^ ": safe") true d.Consensus.Checker.safe;
      Alcotest.(check (float 0.0))
        (cell ^ ": all correct honest nodes decided")
        1.0 d.Consensus.Checker.decided_fraction
  | Safe_only ->
      if not d.Consensus.Checker.safe then
        Alcotest.failf "%s: safety violated:@.%a" cell
          (Format.pp_print_list Consensus.Checker.pp_violation)
          d.Consensus.Checker.safety_violations
  | Documented_unsafe _why -> ignore d.Consensus.Checker.safe

let test_byz_regime regime () =
  List.iter
    (fun alg ->
      List.iter (fun sched -> run_byz_cell alg sched regime) schedulers)
    algorithms

let run_cell (Alg a) (sched_name, scheduler_of) (fault_name, faults) =
  let cell = Printf.sprintf "%s/%s/%s" a.name sched_name fault_name in
  let seed = Hashtbl.hash cell land 0xFFFF in
  let scheduler = scheduler_of (Amac.Rng.create seed) in
  let result =
    Consensus.Runner.run (a.make ()) ~topology:a.topology
      ~scheduler ~inputs:a.inputs ~faults ~max_time:60_000
  in
  let d = result.Consensus.Runner.degradation in
  match expectation ~alg:a.name ~fault:fault_name with
  | Safe_and_live ->
      Alcotest.(check bool) (cell ^ ": safe") true d.Consensus.Checker.safe;
      Alcotest.(check (float 0.0))
        (cell ^ ": all correct nodes decided")
        1.0 d.Consensus.Checker.decided_fraction
  | Safe_only ->
      if not d.Consensus.Checker.safe then
        Alcotest.failf "%s: safety violated:@.%a" cell
          (Format.pp_print_list Consensus.Checker.pp_violation)
          d.Consensus.Checker.safety_violations
  | Documented_unsafe _why ->
      (* Outside the fault model: the run must complete and the checker
         must produce a verdict; the verdict itself is not pinned. *)
      ignore d.Consensus.Checker.safe

let test_fault_regime (fault_name, faults) () =
  List.iter
    (fun alg ->
      let (Alg a) = alg in
      if fault_name = "none" || a.crash_tolerant then
        List.iter (fun sched -> run_cell alg sched (fault_name, faults)) schedulers)
    algorithms

(* ------------------------------------------------------------------ *)
(* The lifecycle axis: the four production-lifecycle scenarios (rolling
   restart, scale-up under load, crash-during-reconfig, restart-from-
   snapshot; see Workload.Lifecycle) crossed with three ack-latency
   environments, two seeds each. Safety — the full Smr_checker contract,
   epochs and snapshot installs included — is asserted in EVERY cell;
   liveness (the scenario's own convergence criterion) is pinned per
   cell.

   Every cell is Safe_and_live. Early in PR 7 the rolling restart was
   stuck at fack = 1 (last restarter short at commit 26 of 40, both
   seeds): a straggler that ran out of locally-known decisions went
   silent mid-catch-up, killing the repair echo loop. Announced commit
   indexes now feed max_inst_seen (Smr.on_leader), so a recovering node
   that has HEARD of a longer prefix keeps broadcasting until it holds
   it — which turned every cell of this grid live and is exactly the
   regression this matrix would catch. *)

let lifecycle_envs = [ ("fast-ack", 1); ("moderate", 3); ("laggy", 6) ]

let lifecycle_seeds = [ 42; 7 ]

let lifecycle_expectation ~scenario:_ ~env:_ = Safe_and_live

let run_lifecycle_cell scenario (env_name, fack) seed =
  let cell =
    Printf.sprintf "%s/%s/seed=%d"
      (Lifecycle.name scenario)
      env_name seed
  in
  let outcome = Lifecycle.run ~seed ~fack scenario in
  let r = outcome.Lifecycle.result in
  (* Safety, unconditionally: checker clean + nothing submitted was lost. *)
  Alcotest.(check (list string))
    (cell ^ ": no safety violations")
    []
    (List.map Smr_checker.to_string r.Workload.violations);
  Alcotest.(check int)
    (cell ^ ": every submitted command committed")
    r.Workload.submitted r.Workload.committed;
  match lifecycle_expectation ~scenario ~env:env_name with
  | Safe_and_live ->
      Alcotest.(check bool)
        (cell ^ ": re-achieved liveness (" ^ outcome.Lifecycle.detail
       ^ ")")
        true outcome.Lifecycle.live
  | Safe_only ->
      Alcotest.(check bool)
        (cell ^ ": pinned liveness degradation ("
       ^ outcome.Lifecycle.detail ^ ")")
        false outcome.Lifecycle.live
  | Documented_unsafe _ -> ()

let test_lifecycle_scenario scenario () =
  List.iter
    (fun env ->
      List.iter (fun seed -> run_lifecycle_cell scenario env seed)
        lifecycle_seeds)
    lifecycle_envs

(* ------------------------------------------------------------------ *)
(* The sharded axis: multi-group SMR with batching under the crash
   fault regime, crossed with the same three ack-latency environments,
   two seeds each. Safety is the sharded contract (per-group prefix
   agreement, cross-group exactly-once, batch atomicity) in EVERY cell;
   crashes land inside the first broadcast windows — leader election
   per group, the most delicate phase — so the cells where a crashed
   node led several groups at once are exactly the ones that would
   expose ack misrouting or a batch applied across the amnesia gap. *)

let run_shard_cell (env_name, fack) seed =
  let cell = Printf.sprintf "sharded-smr/crash/%s/seed=%d" env_name fack in
  let scheduler =
    if fack = 1 then Amac.Scheduler.synchronous
    else Amac.Scheduler.bursty ~fack ~fast_len:40 ~slow_len:12
  in
  let r =
    Shard_workload.run
      ~topology:(Amac.Topology.clique 5)
      ~scheduler
      ~faults:
        [
          Fault.Crash { node = (seed mod 2) + 1; at = 2 * fack };
          Fault.Crash { node = 3 + (seed mod 2); at = (6 * fack) + 1 };
        ]
      ~seed ~cmds:50 ~groups:4 ~batch:3 ()
  in
  Alcotest.(check (list string))
    (cell ^ ": no sharded safety violations")
    []
    (List.map Smr_checker.shard_to_string r.Shard_workload.violations);
  (* Three of five replicas stay up: a majority in every group, so the
     run must still make progress even with both crashed nodes leading
     groups at crash time. *)
  Alcotest.(check bool)
    (cell ^ ": surviving majority keeps committing")
    true
    (r.Shard_workload.committed > 0)

let test_shard_regime () =
  List.iter
    (fun env -> List.iter (fun seed -> run_shard_cell env seed) lifecycle_seeds)
    lifecycle_envs

(* ------------------------------------------------------------------ *)
(* The multi-hop axis: consensus and the SMR stack leave the clique.
   Generated grid and RGG topologies (Topo_gen, seeded) under the
   interference scheduler — each sender's ack stretches with its local
   contention — with Safe_and_live pinned: wPAXOS decides at every node
   and SMR commits everything submitted, multi-hop relaying and all. One
   crash-faulted cell loses a mid-grid relay during the first broadcast
   wave and recovers it, pinning recovery across a multi-hop diameter. *)

let multihop_topologies =
  [
    ("grid:4x4", Topo_gen.Grid { width = 4; height = 4 });
    ( "rgg:24",
      Topo_gen.Rgg { n = 24; radius = Topo_gen.connectivity_radius ~n:24 } );
  ]

let interference_scheduler seed =
  Amac.Scheduler.interference ~alpha:1
    (Amac.Scheduler.random (Amac.Rng.create seed) ~fack:2)

let run_multihop_wpaxos_cell (tname, spec) =
  let topology = Topo_gen.generate ~seed:7 spec in
  let n = Amac.Topology.size topology in
  let cell = Printf.sprintf "wpaxos/interference/%s" tname in
  let seed = Hashtbl.hash cell land 0xFFFF in
  let result =
    Consensus.Runner.run (Consensus.Wpaxos.make ()) ~topology
      ~scheduler:(interference_scheduler seed)
      ~inputs:(Consensus.Runner.inputs_alternating ~n)
      ~max_time:60_000
  in
  let d = result.Consensus.Runner.degradation in
  Alcotest.(check bool) (cell ^ ": safe") true d.Consensus.Checker.safe;
  Alcotest.(check (float 0.0))
    (cell ^ ": all nodes decided")
    1.0 d.Consensus.Checker.decided_fraction

let run_multihop_smr_cell (tname, spec) =
  let topology = Topo_gen.generate ~seed:7 spec in
  let cell = Printf.sprintf "smr/interference/%s" tname in
  let seed = Hashtbl.hash cell land 0xFFFF in
  let r =
    Workload.run ~topology
      ~scheduler:(interference_scheduler seed)
      ~seed:(seed land 0xFF) ~cmds:8
      ~mode:(Workload.Open_loop { mean_gap = 6 })
      ()
  in
  Alcotest.(check (list string))
    (cell ^ ": no safety violations")
    []
    (List.map Smr_checker.to_string r.Workload.violations);
  Alcotest.(check bool)
    (cell ^ ": commands actually flowed")
    true (r.Workload.submitted > 0);
  Alcotest.(check int)
    (cell ^ ": every submitted command committed")
    r.Workload.submitted r.Workload.committed

let run_multihop_crash_cell () =
  let topology =
    Topo_gen.generate ~seed:7 (Topo_gen.Grid { width = 4; height = 4 })
  in
  let result =
    Consensus.Runner.run (Consensus.Wpaxos.make ()) ~topology
      ~scheduler:(interference_scheduler 5)
      ~inputs:(Consensus.Runner.inputs_alternating ~n:16)
      ~faults:
        [ Fault.Crash { node = 5; at = 4 }; Fault.Recover { node = 5; at = 80 } ]
      ~max_time:60_000
  in
  let d = result.Consensus.Runner.degradation in
  let cell = "wpaxos/interference/grid:4x4/crash_recovery" in
  Alcotest.(check bool) (cell ^ ": safe") true d.Consensus.Checker.safe;
  Alcotest.(check (float 0.0))
    (cell ^ ": recovered relay rejoins and everyone decides")
    1.0 d.Consensus.Checker.decided_fraction

let test_multihop_wpaxos () =
  List.iter run_multihop_wpaxos_cell multihop_topologies

let test_multihop_smr () = List.iter run_multihop_smr_cell multihop_topologies

let () =
  Alcotest.run "matrix"
    [
      ( "cells",
        List.map
          (fun ((fault_name, _) as regime) ->
            Alcotest.test_case
              (Printf.sprintf "all algorithms x all schedulers [%s]" fault_name)
              `Quick (test_fault_regime regime))
          fault_regimes );
      ( "adversary",
        List.map
          (fun ((regime_name, _, _) as regime) ->
            Alcotest.test_case
              (Printf.sprintf "all algorithms x all schedulers [%s]" regime_name)
              `Quick (test_byz_regime regime))
          byz_regimes );
      ( "lifecycle",
        List.map
          (fun scenario ->
            Alcotest.test_case
              (Printf.sprintf "all environments [%s]"
                 (Lifecycle.name scenario))
              `Quick
              (test_lifecycle_scenario scenario))
          Lifecycle.all );
      ( "sharded",
        [
          Alcotest.test_case "all environments [sharded-smr, crash]" `Quick
            test_shard_regime;
        ] );
      ( "multi-hop",
        [
          Alcotest.test_case "wpaxos x generated topologies [interference]"
            `Quick test_multihop_wpaxos;
          Alcotest.test_case "smr x generated topologies [interference]"
            `Quick test_multihop_smr;
          Alcotest.test_case "crash-faulted grid cell" `Quick
            run_multihop_crash_cell;
        ] );
    ]
