(* Satellite: fault-plan validation — malformed plans are rejected up
   front with a clear Invalid_argument, at both the Fault.validate level
   and the engine's crash/recovery-schedule level. *)

let ok plan = Fault.validate ~n:4 plan

let rejects msg plan =
  Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
      Fault.validate ~n:4 plan)

let test_valid_plans () =
  ok [];
  ok [ Fault.Crash { node = 0; at = 3 } ];
  ok
    [
      Fault.Crash { node = 0; at = 3 };
      Fault.Recover { node = 0; at = 7 };
      Fault.Crash { node = 0; at = 9 };
    ];
  (* Non-overlapping windows on one edge, overlapping on distinct edges. *)
  ok
    [
      Fault.Link_drop { edge = (0, 1); from_ = 0; until = 5 };
      Fault.Link_drop { edge = (1, 0); from_ = 5; until = 9 };
      Fault.Link_drop { edge = (2, 3); from_ = 2; until = 7 };
    ];
  (* Sequential partition-and-heal episodes. *)
  ok
    [
      Fault.Partition { cut = [ 0; 1 ]; from_ = 0; until = 4 };
      Fault.Partition { cut = [ 2 ]; from_ = 4; until = 8 };
      Fault.Stutter { node = 1; from_ = 0; until = 3 };
      Fault.Stutter { node = 2; from_ = 0; until = 3 };
    ]

let test_duplicate_crash () =
  rejects
    "Fault.validate: duplicate crash of node 2 at t=9 (same incarnation \
     crashed twice, no recovery between)"
    [ Fault.Crash { node = 2; at = 4 }; Fault.Crash { node = 2; at = 9 } ]

let test_recover_before_crash () =
  rejects "Fault.validate: recover of node 1 at t=5 before any crash"
    [ Fault.Recover { node = 1; at = 5 } ];
  rejects "Fault.validate: recover of node 1 at t=2 before any crash"
    [ Fault.Recover { node = 1; at = 2 }; Fault.Crash { node = 1; at = 6 } ]

let test_same_instant () =
  rejects "Fault.validate: node 3 has two crash/recover events at t=6"
    [ Fault.Crash { node = 3; at = 6 }; Fault.Recover { node = 3; at = 6 } ]

let test_overlapping_loss_windows () =
  (* Overlap is detected on the normalized (undirected) edge. *)
  rejects
    "Fault.validate: overlapping loss windows on edge (0,1): [2,8) and [5,11)"
    [
      Fault.Link_drop { edge = (0, 1); from_ = 2; until = 8 };
      Fault.Link_drop { edge = (1, 0); from_ = 5; until = 11 };
    ]

let test_overlapping_stutters () =
  rejects
    "Fault.validate: overlapping stutter windows on node 2: [0,4) and [3,6)"
    [
      Fault.Stutter { node = 2; from_ = 0; until = 4 };
      Fault.Stutter { node = 2; from_ = 3; until = 6 };
    ]

let test_concurrent_partitions () =
  rejects
    "Fault.validate: overlapping partitions: windows [0,9) and [4,6) are \
     both in force"
    [
      Fault.Partition { cut = [ 0 ]; from_ = 0; until = 9 };
      Fault.Partition { cut = [ 3 ]; from_ = 4; until = 6 };
    ]

let test_partition_cuts () =
  rejects "Fault.validate: partition cut is empty"
    [ Fault.Partition { cut = []; from_ = 0; until = 5 } ];
  rejects "Fault.validate: partition cut has duplicate nodes"
    [ Fault.Partition { cut = [ 1; 1 ]; from_ = 0; until = 5 } ];
  rejects
    "Fault.validate: partition cut contains every node (nothing to cut)"
    [ Fault.Partition { cut = [ 0; 1; 2; 3 ]; from_ = 0; until = 5 } ]

let test_ranges_and_windows () =
  rejects "Fault.validate: crash node 4 out of range [0,4)"
    [ Fault.Crash { node = 4; at = 0 } ];
  rejects "Fault.validate: crash of node 0 at negative time -1"
    [ Fault.Crash { node = 0; at = -1 } ];
  rejects "Fault.validate: link-drop edge (2,2) is a self-loop"
    [ Fault.Link_drop { edge = (2, 2); from_ = 0; until = 3 } ];
  rejects "Fault.validate: link-drop window [5,5) is empty or inverted"
    [ Fault.Link_drop { edge = (0, 1); from_ = 5; until = 5 } ];
  rejects "Fault.validate: stutter window starts at negative time -2"
    [ Fault.Stutter { node = 0; from_ = -2; until = 3 } ]

let test_horizon_and_crashes () =
  let plan =
    [
      Fault.Crash { node = 0; at = 2 };
      Fault.Recover { node = 0; at = 10 };
      Fault.Crash { node = 1; at = 50 };
      Fault.Link_drop { edge = (2, 3); from_ = 0; until = 30 };
    ]
  in
  Fault.validate ~n:4 plan;
  (* Unrecovered crash of node 1 contributes nothing: fail-stop is forever,
     so the plan is "quiet" once windows close and recoveries are done. *)
  let obs = Obs.Metrics.create () in
  Fault.record ~obs plan;
  Alcotest.(check bool) "horizon" true
    (match Fixtures.find (Obs.Metrics.snapshot obs) "fault_plan_horizon" with
    | Some { value = Gauge h; _ } -> h = 30.
    | _ -> false);
  Alcotest.(check (list (pair int int))) "crashes" [ (0, 2); (1, 50) ]
    (List.sort compare (Fault.crashes plan))

let test_compile_half_open () =
  let compiled =
    Fault.compile ~n:4
      [ Fault.Link_drop { edge = (1, 2); from_ = 3; until = 7 } ]
  in
  let drop = Option.get compiled.Fault.drop in
  Alcotest.(check bool) "inactive before" false
    (drop ~now:2 ~sender:1 ~receiver:2);
  Alcotest.(check bool) "active at from_" true
    (drop ~now:3 ~sender:1 ~receiver:2);
  Alcotest.(check bool) "undirected" true (drop ~now:6 ~sender:2 ~receiver:1);
  Alcotest.(check bool) "inactive at until" false
    (drop ~now:7 ~sender:1 ~receiver:2);
  Alcotest.(check bool) "other edge untouched" false
    (drop ~now:5 ~sender:0 ~receiver:1);
  Alcotest.(check bool) "no stutter hook" true (compiled.Fault.stutter = None)

(* Below the fault plan, the engine applies the same alternation
   discipline to its raw [?crashes] / [?recoveries] schedules, so a direct
   engine caller cannot smuggle in what Fault.validate rejects. *)
let test_engine_rejects_raw_duplicates () =
  let run ~crashes =
    ignore
      (Amac.Engine.run Consensus.Two_phase.algorithm
         ~topology:(Amac.Topology.clique 3)
         ~scheduler:Amac.Scheduler.synchronous ~inputs:[| 0; 1; 1 |] ~crashes)
  in
  Alcotest.check_raises "duplicate crash"
    (Invalid_argument
       "Engine.run: duplicate crash of node 1 at t=8 (same incarnation \
        crashed twice, no recovery between)")
    (fun () -> run ~crashes:[ (1, 3); (1, 8) ])

(* A crash handed to the drivers as a plan event runs exactly as the same
   [(node, time)] handed to the engine raw: same decisions, same event
   count, same end time, same cancelled deliveries. *)
let prop_plan_crashes_match_raw =
  QCheck.Test.make ~count:200
    ~name:"Runner.run ~faults = Engine.run ~crashes on early crashes"
    QCheck.(quad small_nat (int_range 2 6) (int_range 1 8) bool)
    (fun (seed, n, fack, line) ->
      let plan =
        Mcheck.Campaign.early_crashes (Amac.Rng.create seed) ~n ~fack ~max:3
      in
      let topology =
        if line then Amac.Topology.line n else Amac.Topology.clique n
      in
      let scheduler () = Amac.Scheduler.random (Amac.Rng.create seed) ~fack in
      let inputs = Consensus.Runner.inputs_alternating ~n in
      let same algorithm =
        let via_plan =
          (Consensus.Runner.run algorithm ~topology ~scheduler:(scheduler ())
             ~inputs ~faults:plan ~max_time:20_000)
            .Consensus.Runner.outcome
        in
        let raw =
          Amac.Engine.run algorithm ~topology ~scheduler:(scheduler ()) ~inputs
            ~crashes:(Fault.crashes plan) ~max_time:20_000
        in
        via_plan.decisions = raw.decisions
        && via_plan.events_processed = raw.events_processed
        && via_plan.end_time = raw.end_time
        && via_plan.dropped = raw.dropped
      in
      if line then same (Consensus.Wpaxos.make ())
      else same Consensus.Two_phase.algorithm)

(* Runner.run, Workload.run and Shard_workload.run mirror a fault plan
   into their metrics the same way: a non-empty plan as fault_* samples,
   an empty one as none at all. *)
let test_plans_recorded_alike () =
  let fault_samples faults run =
    let reg = Obs.Metrics.create () in
    run ~faults reg;
    List.filter
      (fun s -> String.starts_with ~prefix:"fault_" s.Obs.Metrics.name)
      (Obs.Metrics.snapshot reg)
  in
  let runner ~faults reg =
    ignore
      (Consensus.Runner.run Consensus.Two_phase.algorithm
         ~topology:(Amac.Topology.clique 3)
         ~scheduler:Amac.Scheduler.synchronous ~inputs:[| 0; 1; 1 |] ~faults
         ~obs:reg)
  and smr ~faults reg =
    ignore
      (Workload.run ~faults
         ~topology:(Amac.Topology.clique 3)
         ~scheduler:Amac.Scheduler.synchronous ~seed:3 ~cmds:4
         ~mode:(Workload.Open_loop { mean_gap = 4 })
         ~obs:reg ())
  and shard ~faults reg =
    ignore
      (Shard_workload.run ~faults
         ~topology:(Amac.Topology.clique 3)
         ~scheduler:Amac.Scheduler.synchronous ~seed:3 ~cmds:4 ~groups:2
         ~obs:reg ())
  in
  let plan =
    [ Fault.Crash { node = 1; at = 5 }; Fault.Recover { node = 1; at = 40 } ]
  in
  List.iter
    (fun (name, run) ->
      Alcotest.(check int)
        (name ^ ": no samples for []")
        0
        (List.length (fault_samples [] run));
      let samples = fault_samples plan run in
      Alcotest.(check int)
        (name ^ ": one crash counted")
        1
        (Fixtures.counter_of samples ~labels:[ ("kind", "crash") ]
           "fault_events_total");
      Alcotest.(check bool)
        (name ^ ": horizon recorded")
        true
        (Fixtures.find samples "fault_plan_horizon" <> None))
    [ ("Runner", runner); ("Workload", smr); ("Shard_workload", shard) ]

let () =
  Alcotest.run "fault"
    [
      ( "validate",
        [
          Alcotest.test_case "valid plans pass" `Quick test_valid_plans;
          Alcotest.test_case "duplicate crash" `Quick test_duplicate_crash;
          Alcotest.test_case "recover before crash" `Quick
            test_recover_before_crash;
          Alcotest.test_case "same-instant pair" `Quick test_same_instant;
          Alcotest.test_case "overlapping loss windows" `Quick
            test_overlapping_loss_windows;
          Alcotest.test_case "overlapping stutters" `Quick
            test_overlapping_stutters;
          Alcotest.test_case "concurrent partitions" `Quick
            test_concurrent_partitions;
          Alcotest.test_case "partition cut checks" `Quick test_partition_cuts;
          Alcotest.test_case "ranges and windows" `Quick
            test_ranges_and_windows;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "horizon and crash schedule" `Quick
            test_horizon_and_crashes;
          Alcotest.test_case "compile: half-open windows" `Quick
            test_compile_half_open;
          Alcotest.test_case "engine rejects raw duplicates" `Quick
            test_engine_rejects_raw_duplicates;
          QCheck_alcotest.to_alcotest prop_plan_crashes_match_raw;
          Alcotest.test_case "every run records plans alike" `Quick
            test_plans_recorded_alike;
        ] );
    ]
