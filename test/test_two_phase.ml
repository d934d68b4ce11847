(* Two-phase consensus (Algorithm 1, Sec 4.1). *)

let run ?identities ?(algorithm = Consensus.Two_phase.algorithm) ~n ~scheduler
    inputs =
  Consensus.Runner.run algorithm ?identities ~give_n:false
    ~topology:(Amac.Topology.clique n) ~scheduler ~inputs

let test_unanimous () =
  List.iter
    (fun value ->
      let result =
        run ~n:5 ~scheduler:Amac.Scheduler.synchronous
          (Consensus.Runner.inputs_all ~n:5 value)
      in
      Alcotest.(check bool) "ok" true (Consensus.Checker.ok result.report);
      Alcotest.(check (list int)) "decides the input" [ value ]
        result.report.decided_values)
    [ 0; 1 ]

let test_mixed_synchronous () =
  let result =
    run ~n:6 ~scheduler:Amac.Scheduler.synchronous
      (Consensus.Runner.inputs_alternating ~n:6)
  in
  Alcotest.(check bool) "ok" true (Consensus.Checker.ok result.report);
  (* Lock-step: everyone sees both values in phase 1, all bivalent, default
     1 wins. *)
  Alcotest.(check (list int)) "default 1" [ 1 ] result.report.decided_values

let test_single_node () =
  let result =
    run ~n:1 ~scheduler:Amac.Scheduler.synchronous [| 0 |]
  in
  Alcotest.(check bool) "ok" true (Consensus.Checker.ok result.report);
  Alcotest.(check (list int)) "own value" [ 0 ] result.report.decided_values

let test_two_nodes_conflict () =
  let result = run ~n:2 ~scheduler:Amac.Scheduler.synchronous [| 0; 1 |] in
  Alcotest.(check bool) "ok" true (Consensus.Checker.ok result.report)

let test_time_bound_synchronous () =
  (* Two broadcast cycles at F_ack = 1: decisions by t = 2 + slack for the
     witness wait; under the synchronous scheduler witnesses are already
     covered, so exactly 2. *)
  let result =
    run ~n:8 ~scheduler:Amac.Scheduler.synchronous
      (Consensus.Runner.inputs_alternating ~n:8)
  in
  Alcotest.(check (option int)) "2 ticks" (Some 2) result.decision_time

let test_time_bound_fixed () =
  (* At fixed delay F the two phases take exactly 2F. *)
  List.iter
    (fun fack ->
      let result =
        run ~n:5
          ~scheduler:(Amac.Scheduler.fixed ~delay:fack)
          (Consensus.Runner.inputs_alternating ~n:5)
      in
      match result.decision_time with
      | Some t ->
          if t > 3 * fack then
            Alcotest.failf "decision at %d exceeds 3*F_ack=%d" t (3 * fack)
      | None -> Alcotest.fail "no decision")
    [ 1; 2; 5; 13 ]

let test_time_independent_of_n () =
  (* O(F_ack), not O(n): decision times must not grow with n. *)
  let time n =
    let result =
      run ~n ~scheduler:(Amac.Scheduler.fixed ~delay:3)
        (Consensus.Runner.inputs_alternating ~n)
    in
    Option.get result.decision_time
  in
  Alcotest.(check int) "n=4 equals n=64" (time 4) (time 64)

let test_slow_node_still_agrees () =
  (* One straggler delays everyone's witness wait but not agreement. *)
  let result =
    run ~n:5
      ~scheduler:(Amac.Scheduler.slow_node ~fack:20 ~node:3)
      [| 1; 1; 1; 0; 1 |]
  in
  Alcotest.(check bool) "ok" true (Consensus.Checker.ok result.report)

let test_shuffled_ids () =
  let rng = Amac.Rng.create 77 in
  let identities = Amac.Node_id.identity_assignment ~n:7 ~kind:(`Shuffled rng) in
  let result =
    run ~n:7 ~identities
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 3) ~fack:6)
      (Consensus.Runner.inputs_alternating ~n:7)
  in
  Alcotest.(check bool) "ok with shuffled ids" true
    (Consensus.Checker.ok result.report)

let test_literal_violates () =
  let demo = Lowerbound.Erratum.two_phase_demo () in
  Alcotest.(check bool) "literal pseudocode violates agreement" false
    demo.literal_report.agreement

let test_corrected_survives_erratum_schedule () =
  let demo = Lowerbound.Erratum.two_phase_demo () in
  Alcotest.(check bool) "corrected rule is fine" true
    (Consensus.Checker.ok demo.corrected_report)

(* The central property: for every n, scheduler seed and input vector,
   two-phase consensus holds all four properties — without knowledge of n. *)
let prop_consensus_random_schedules =
  QCheck.Test.make ~name:"two-phase solves consensus (random schedules)"
    ~count:400
    QCheck.(
      quad (int_range 1 12) small_int (int_range 1 10)
        (list_of_size (Gen.return 12) bool))
    (fun (n, seed, fack, input_bits) ->
      let inputs =
        Array.init n (fun i -> if List.nth input_bits i then 1 else 0)
      in
      let scheduler = Amac.Scheduler.random (Amac.Rng.create seed) ~fack in
      let result = run ~n ~scheduler inputs in
      Consensus.Checker.ok result.report)

(* Decision time is always within 3 F_ack (2 broadcasts + witness wait,
   each bounded by F_ack), independent of n. *)
let prop_time_bound =
  QCheck.Test.make ~name:"two-phase decides within 3*F_ack" ~count:300
    QCheck.(triple (int_range 1 16) small_int (int_range 1 8))
    (fun (n, seed, fack) ->
      let scheduler = Amac.Scheduler.random (Amac.Rng.create seed) ~fack in
      let result = run ~n ~scheduler (Consensus.Runner.inputs_alternating ~n) in
      match result.decision_time with
      | Some t -> t <= 3 * fack
      | None -> false)

(* Messages carry exactly one id. *)
let prop_message_size =
  QCheck.Test.make ~name:"two-phase messages carry 1 id" ~count:100
    QCheck.(pair (int_range 2 10) small_int)
    (fun (n, seed) ->
      let scheduler = Amac.Scheduler.random (Amac.Rng.create seed) ~fack:4 in
      let result = run ~n ~scheduler (Consensus.Runner.inputs_alternating ~n) in
      result.outcome.max_ids_per_message = 1)

let () =
  Alcotest.run "two_phase"
    [
      ( "unit",
        [
          Alcotest.test_case "unanimous inputs" `Quick test_unanimous;
          Alcotest.test_case "mixed synchronous" `Quick test_mixed_synchronous;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "two nodes conflict" `Quick
            test_two_nodes_conflict;
          Alcotest.test_case "time bound (sync)" `Quick
            test_time_bound_synchronous;
          Alcotest.test_case "time bound (fixed)" `Quick test_time_bound_fixed;
          Alcotest.test_case "time independent of n" `Quick
            test_time_independent_of_n;
          Alcotest.test_case "slow node" `Quick test_slow_node_still_agrees;
          Alcotest.test_case "shuffled ids" `Quick test_shuffled_ids;
          Alcotest.test_case "erratum: literal violates" `Quick
            test_literal_violates;
          Alcotest.test_case "erratum: corrected ok" `Quick
            test_corrected_survives_erratum_schedule;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_consensus_random_schedules;
          QCheck_alcotest.to_alcotest prop_time_bound;
          QCheck_alcotest.to_alcotest prop_message_size;
        ] );
    ]
