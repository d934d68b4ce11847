(* Randomized consensus (Ben-Or over the abstract MAC layer): the paper's
   future-work direction 3 — circumventing the Thm 3.2 crash impossibility
   with randomness. *)

let run ?(crashes = []) ?(fack = 4) ~n ~seed inputs =
  Consensus.Runner.run
    (Consensus.Ben_or.make ~seed ())
    ~topology:(Amac.Topology.clique n)
    ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack)
    ~inputs
    ~faults:(List.map (fun (node, at) -> Fault.Crash { node; at }) crashes)
    ~max_time:200_000

let check_ok what (result : Consensus.Runner.result) =
  if not (Consensus.Checker.ok result.report) then
    Alcotest.failf "%s: %s" what
      (String.concat "; " result.report.Consensus.Checker.problems)

let test_unanimous () =
  List.iter
    (fun value ->
      let result = run ~n:5 ~seed:1 (Consensus.Runner.inputs_all ~n:5 value) in
      check_ok "unanimous" result;
      Alcotest.(check (list int)) "decides the common input" [ value ]
        result.report.decided_values)
    [ 0; 1 ]

let test_mixed_inputs () =
  List.iter
    (fun seed ->
      check_ok "mixed"
        (run ~n:6 ~seed (Consensus.Runner.inputs_alternating ~n:6)))
    [ 1; 2; 3; 4; 5 ]

let test_single_and_pair () =
  check_ok "n=1" (run ~n:1 ~seed:1 [| 0 |]);
  check_ok "n=2" (run ~n:2 ~seed:2 [| 0; 1 |])

let test_survives_minority_crashes () =
  (* f = ceil(n/2) - 1 crashes at assorted times: all live nodes decide. *)
  List.iter
    (fun (n, crashes, seed) ->
      let result =
        run ~n ~seed ~crashes (Consensus.Runner.inputs_alternating ~n)
      in
      check_ok (Printf.sprintf "n=%d with %d crashes" n (List.length crashes))
        result)
    [
      (3, [ (0, 2) ], 1);
      (5, [ (1, 0); (3, 6) ], 2);
      (7, [ (0, 1); (2, 4); (5, 9) ], 3);
      (9, [ (0, 1); (1, 5); (2, 9); (3, 13) ], 4);
      (4, [ (2, 3) ], 5);
    ]

let test_crash_mid_broadcast () =
  (* A crash splitting a broadcast (some receive, some do not) must not
     hurt: per-edge delays make node 0's messages reach node 1 fast and
     node 2 slow, then node 0 dies in between. *)
  let scheduler =
    Fixtures.per_edge ~name:"split" ~fack:9
      ~delay:(fun ~sender ~receiver ->
        if sender = 0 && receiver = 2 then 9 else 1)
  in
  let result =
    Consensus.Runner.run
      (Consensus.Ben_or.make ~seed:3 ())
      ~topology:(Amac.Topology.clique 3)
      ~scheduler ~inputs:[| 1; 0; 0 |]
      ~faults:[ Fault.Crash { node = 0; at = 4 } ]
      ~max_time:200_000
  in
  check_ok "crash mid-broadcast" result

let test_circumvents_flp () =
  (* The headline: the exact crash schedule that blocks deterministic
     two-phase consensus forever (crash mid-phase-2) is harmless to Ben-Or.
     fixed(4): phase 1 acks at t=4, phase-2 deliveries due t=8; crashing
     node 2 at t=5 leaves the others waiting for its phase-2 message. *)
  let scheduler = Amac.Scheduler.fixed ~delay:4 in
  let faults = [ Fault.Crash { node = 2; at = 5 } ] in
  let inputs = [| 0; 1; 1 |] in
  let two_phase =
    Consensus.Runner.run Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 3)
      ~scheduler ~inputs ~faults ~max_time:2_000
  in
  Alcotest.(check bool) "two-phase blocks (termination violated)" false
    two_phase.report.termination;
  Alcotest.(check bool) "two-phase stays safe though" true
    (Consensus.Checker.safe two_phase.report);
  let ben_or =
    Consensus.Runner.run
      (Consensus.Ben_or.make ~seed:11 ())
      ~topology:(Amac.Topology.clique 3)
      ~scheduler ~inputs ~faults ~max_time:200_000
  in
  check_ok "ben-or decides under the same schedule" ben_or

let test_requires_n () =
  Alcotest.check_raises "needs n"
    (Invalid_argument "Ben_or: requires knowledge of n") (fun () ->
      ignore
        (Consensus.Runner.run
           (Consensus.Ben_or.make ~seed:1 ())
           ~give_n:false
           ~topology:(Amac.Topology.clique 3)
           ~scheduler:Amac.Scheduler.synchronous ~inputs:[| 0; 1; 0 |]))

let test_message_ids () =
  let result = run ~n:4 ~seed:9 (Consensus.Runner.inputs_alternating ~n:4) in
  Alcotest.(check int) "one id per message" 1
    result.outcome.max_ids_per_message

let prop_consensus_with_random_crashes =
  QCheck.Test.make
    ~name:"ben-or: agreement+validity+termination under minority crashes"
    ~count:150
    QCheck.(
      quad (int_range 1 9) small_int (int_range 1 6)
        (pair (list_of_size (Gen.return 9) bool) (list_of_size (Gen.return 4) (int_range 0 30))))
    (fun (n, seed, fack, (bits, crash_times)) ->
      let f = if n <= 2 then 0 else (n - 1) / 2 in
      let crashes =
        List.filteri (fun i _ -> i < f)
          (List.mapi (fun i t -> (i, t)) crash_times)
      in
      let inputs = Array.init n (fun i -> if List.nth bits i then 1 else 0) in
      let result = run ~n ~seed ~fack ~crashes inputs in
      Consensus.Checker.ok result.report)

let prop_unanimity_is_deterministic =
  QCheck.Test.make ~name:"ben-or: unanimity decides round 1, no coin needed"
    ~count:60
    QCheck.(triple (int_range 1 8) small_int bool)
    (fun (n, seed, bit) ->
      let v = if bit then 1 else 0 in
      let result = run ~n ~seed (Consensus.Runner.inputs_all ~n v) in
      Consensus.Checker.ok result.report
      && result.report.decided_values = [ v ])

let () =
  Alcotest.run "ben_or"
    [
      ( "unit",
        [
          Alcotest.test_case "unanimous" `Quick test_unanimous;
          Alcotest.test_case "mixed inputs" `Quick test_mixed_inputs;
          Alcotest.test_case "tiny networks" `Quick test_single_and_pair;
          Alcotest.test_case "minority crashes" `Quick
            test_survives_minority_crashes;
          Alcotest.test_case "crash mid-broadcast" `Quick
            test_crash_mid_broadcast;
          Alcotest.test_case "circumvents FLP schedule" `Quick
            test_circumvents_flp;
          Alcotest.test_case "requires n" `Quick test_requires_n;
          Alcotest.test_case "message ids" `Quick test_message_ids;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_consensus_with_random_crashes;
          QCheck_alcotest.to_alcotest prop_unanimity_is_deterministic;
        ] );
    ]
