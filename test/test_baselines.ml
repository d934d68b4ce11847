(* Baseline algorithms: flood-gather, flood-paxos, round-flood. *)

let check_ok what (result : Consensus.Runner.result) =
  if not (Consensus.Checker.ok result.report) then
    Alcotest.failf "%s: %s" what
      (String.concat "; " result.report.Consensus.Checker.problems)

(* ---------------- flood-gather ---------------- *)

let test_fg_decides_min () =
  let result =
    Consensus.Runner.run
      (Consensus.Flood_gather.make ())
      ~topology:(Amac.Topology.ring 6)
      ~scheduler:Amac.Scheduler.synchronous
      ~inputs:[| 1; 1; 0; 1; 1; 1 |]
  in
  check_ok "flood-gather" result;
  Alcotest.(check (list int)) "min value" [ 0 ] result.report.decided_values

let test_fg_unanimous_one () =
  let result =
    Consensus.Runner.run
      (Consensus.Flood_gather.make ())
      ~topology:(Amac.Topology.line 5)
      ~scheduler:Amac.Scheduler.synchronous
      ~inputs:(Consensus.Runner.inputs_all ~n:5 1)
  in
  check_ok "flood-gather all-1" result;
  Alcotest.(check (list int)) "min is 1" [ 1 ] result.report.decided_values

let test_fg_requires_n () =
  Alcotest.check_raises "needs n"
    (Invalid_argument "Flood_gather: requires knowledge of n") (fun () ->
      ignore
        (Consensus.Runner.run
           (Consensus.Flood_gather.make ())
           ~give_n:false
           ~topology:(Amac.Topology.line 3)
           ~scheduler:Amac.Scheduler.synchronous ~inputs:[| 0; 0; 1 |]))

let test_fg_pairs_validation () =
  Alcotest.check_raises "pairs_per_msg >= 1"
    (Invalid_argument "Flood_gather.make: pairs_per_msg must be >= 1")
    (fun () -> ignore (Consensus.Flood_gather.make ~pairs_per_msg:0 ()))

let test_fg_message_size_respected () =
  let result =
    Consensus.Runner.run
      (Consensus.Flood_gather.make ~pairs_per_msg:2 ())
      ~topology:(Amac.Topology.star 12)
      ~scheduler:Amac.Scheduler.synchronous
      ~inputs:(Consensus.Runner.inputs_alternating ~n:12)
  in
  check_ok "flood-gather star" result;
  Alcotest.(check bool) "at most 2 ids per message" true
    (result.outcome.max_ids_per_message <= 2)

let test_fg_bottleneck_scales_with_n () =
  (* On a star, the hub must forward ~n pairs 2 at a time: time grows
     linearly with n even though D = 2. *)
  let time n =
    let result =
      Consensus.Runner.run
        (Consensus.Flood_gather.make ())
        ~topology:(Amac.Topology.star n)
        ~scheduler:(Amac.Scheduler.fixed ~delay:1)
        ~inputs:(Consensus.Runner.inputs_alternating ~n)
    in
    check_ok "star run" result;
    Option.get result.decision_time
  in
  let t16 = time 16 and t64 = time 64 in
  Alcotest.(check bool)
    (Printf.sprintf "hub bottleneck grows (t16=%d t64=%d)" t16 t64)
    true
    (t64 >= 3 * t16)

let prop_fg_consensus =
  QCheck.Test.make ~name:"flood-gather solves consensus" ~count:150
    QCheck.(
      quad (int_range 1 12) small_int (int_range 1 5)
        (list_of_size (Gen.return 12) bool))
    (fun (n, seed, fack, bits) ->
      let rng = Amac.Rng.create (seed + 100) in
      let topology = Amac.Topology.random_connected rng ~n ~extra_edges:2 in
      let inputs = Array.init n (fun i -> if List.nth bits i then 1 else 0) in
      let result =
        Consensus.Runner.run
          (Consensus.Flood_gather.make ())
          ~topology
          ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack)
          ~inputs ~max_time:1_000_000
      in
      Consensus.Checker.ok result.report
      && result.report.decided_values
         = [ Array.fold_left min max_int inputs ])

(* ---------------- flood-paxos ---------------- *)

let test_fp_families () =
  List.iter
    (fun (name, topology) ->
      let n = Amac.Topology.size topology in
      let result =
        Consensus.Runner.run
          (Consensus.Flood_paxos.make ())
          ~topology ~scheduler:Amac.Scheduler.synchronous
          ~inputs:(Consensus.Runner.inputs_alternating ~n)
          ~max_time:1_000_000
      in
      check_ok name result)
    [
      ("line", Amac.Topology.line 7);
      ("star", Amac.Topology.star 9);
      ("grid", Amac.Topology.grid ~width:3 ~height:3);
    ]

let test_fp_requires_n () =
  Alcotest.check_raises "needs n"
    (Invalid_argument "Flood_paxos: requires knowledge of n") (fun () ->
      ignore
        (Consensus.Runner.run
           (Consensus.Flood_paxos.make ())
           ~give_n:false
           ~topology:(Amac.Topology.line 3)
           ~scheduler:Amac.Scheduler.synchronous ~inputs:[| 0; 0; 1 |]))

let prop_fp_consensus =
  QCheck.Test.make ~name:"flood-paxos solves consensus" ~count:60
    QCheck.(triple (int_range 1 10) small_int (int_range 1 4))
    (fun (n, seed, fack) ->
      let rng = Amac.Rng.create (seed + 7) in
      let topology = Amac.Topology.random_connected rng ~n ~extra_edges:2 in
      let result =
        Consensus.Runner.run
          (Consensus.Flood_paxos.make ())
          ~topology
          ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack)
          ~inputs:(Consensus.Runner.inputs_random (Amac.Rng.create seed) ~n)
          ~max_time:1_000_000
      in
      Consensus.Checker.ok result.report)

(* ---------------- round-flood ---------------- *)

let test_rf_synchronous_families () =
  (* Correct under the synchronous scheduler in any network when the round
     target covers the diameter — even anonymously. *)
  List.iter
    (fun (name, topology) ->
      let n = Amac.Topology.size topology in
      let identities =
        Amac.Node_id.identity_assignment ~n ~kind:`Anonymous
      in
      let result =
        Consensus.Runner.run
          (Consensus.Round_flood.make ~target:`Knows_n)
          ~identities ~topology ~scheduler:Amac.Scheduler.synchronous
          ~inputs:(Consensus.Runner.inputs_halves ~n)
      in
      check_ok name result;
      Alcotest.(check (list int)) "min wins" [ 0 ] result.report.decided_values)
    [
      ("line", Amac.Topology.line 6);
      ("ring", Amac.Topology.ring 7);
      ("grid", Amac.Topology.grid ~width:3 ~height:4);
    ]

let test_rf_knows_diameter () =
  let topology = Amac.Topology.line 8 in
  let result =
    Consensus.Runner.run
      (Consensus.Round_flood.make ~target:`Knows_diameter)
      ~give_n:false ~give_diameter:true ~topology
      ~scheduler:Amac.Scheduler.synchronous
      ~inputs:(Consensus.Runner.inputs_halves ~n:8)
  in
  check_ok "knows diameter" result

let test_rf_fixed_target () =
  let result =
    Consensus.Runner.run
      (Consensus.Round_flood.make ~target:(`Fixed 10))
      ~give_n:false
      ~topology:(Amac.Topology.ring 5)
      ~scheduler:Amac.Scheduler.synchronous
      ~inputs:(Consensus.Runner.inputs_alternating ~n:5)
  in
  check_ok "fixed target" result

let test_rf_missing_knowledge () =
  Alcotest.check_raises "knows_n without n"
    (Invalid_argument "Round_flood: `Knows_n requires knowledge of n")
    (fun () ->
      ignore
        (Consensus.Runner.run
           (Consensus.Round_flood.make ~target:`Knows_n)
           ~give_n:false
           ~topology:(Amac.Topology.line 2)
           ~scheduler:Amac.Scheduler.synchronous ~inputs:[| 0; 1 |]));
  Alcotest.check_raises "knows_diameter without D"
    (Invalid_argument "Round_flood: `Knows_diameter requires knowledge of D")
    (fun () ->
      ignore
        (Consensus.Runner.run
           (Consensus.Round_flood.make ~target:`Knows_diameter)
           ~topology:(Amac.Topology.line 2)
           ~scheduler:Amac.Scheduler.synchronous ~inputs:[| 0; 1 |]))

let test_rf_anonymous_messages () =
  let result =
    Consensus.Runner.run
      (Consensus.Round_flood.make ~target:`Knows_n)
      ~topology:(Amac.Topology.ring 5)
      ~scheduler:Amac.Scheduler.synchronous
      ~inputs:(Consensus.Runner.inputs_alternating ~n:5)
  in
  Alcotest.(check int) "zero ids per message" 0
    result.outcome.max_ids_per_message

let prop_rf_synchronous_consensus =
  QCheck.Test.make
    ~name:"round-flood correct on random topologies (synchronous)" ~count:150
    QCheck.(pair (int_range 1 15) small_int)
    (fun (n, seed) ->
      let rng = Amac.Rng.create (seed * 3) in
      let topology = Amac.Topology.random_connected rng ~n ~extra_edges:3 in
      let result =
        Consensus.Runner.run
          (Consensus.Round_flood.make ~target:`Knows_n)
          ~topology ~scheduler:Amac.Scheduler.synchronous
          ~inputs:(Consensus.Runner.inputs_random (Amac.Rng.create seed) ~n)
      in
      Consensus.Checker.ok result.report)

(* Every node's state after every handler call, folded in order: pins the
   services' queues and counters at each step of a run, not only the
   outcome. The expected value was computed before the services moved into
   [Consensus.Services]. *)
let test_fp_run_digest () =
  let algorithm = Consensus.Flood_paxos.make () in
  let hooks = Option.get algorithm.Amac.Algorithm.hooks in
  let digest = ref Amac.Fingerprint.empty in
  let step st = digest := hooks.fingerprint st !digest in
  let topology = Amac.Topology.star_of_lines ~arms:8 ~arm_len:4 in
  let n = Amac.Topology.size topology in
  let outcome =
    Amac.Engine.run
      {
        algorithm with
        on_receive =
          (fun ctx st m ->
            let actions = algorithm.on_receive ctx st m in
            step st;
            actions);
        on_ack =
          (fun ctx st ->
            let actions = algorithm.on_ack ctx st in
            step st;
            actions);
      }
      ~topology
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 9) ~fack:4)
      ~inputs:(Consensus.Runner.inputs_alternating ~n)
  in
  Alcotest.(check bool) "decided" true (Fixtures.all_decided outcome);
  Alcotest.(check int) "run digest" 2327130876991249622 (Amac.Fingerprint.to_int !digest)

let () =
  Alcotest.run "baselines"
    [
      ( "flood-gather",
        [
          Alcotest.test_case "decides min" `Quick test_fg_decides_min;
          Alcotest.test_case "unanimous 1" `Quick test_fg_unanimous_one;
          Alcotest.test_case "requires n" `Quick test_fg_requires_n;
          Alcotest.test_case "pairs validation" `Quick
            test_fg_pairs_validation;
          Alcotest.test_case "message size" `Quick
            test_fg_message_size_respected;
          Alcotest.test_case "hub bottleneck" `Slow
            test_fg_bottleneck_scales_with_n;
          QCheck_alcotest.to_alcotest prop_fg_consensus;
        ] );
      ( "flood-paxos",
        [
          Alcotest.test_case "families" `Quick test_fp_families;
          Alcotest.test_case "requires n" `Quick test_fp_requires_n;
          Alcotest.test_case "run digest is pinned" `Quick test_fp_run_digest;
          QCheck_alcotest.to_alcotest prop_fp_consensus;
        ] );
      ( "round-flood",
        [
          Alcotest.test_case "synchronous families" `Quick
            test_rf_synchronous_families;
          Alcotest.test_case "knows diameter" `Quick test_rf_knows_diameter;
          Alcotest.test_case "fixed target" `Quick test_rf_fixed_target;
          Alcotest.test_case "missing knowledge" `Quick
            test_rf_missing_knowledge;
          Alcotest.test_case "anonymous messages" `Quick
            test_rf_anonymous_messages;
          QCheck_alcotest.to_alcotest prop_rf_synchronous_consensus;
        ] );
    ]
