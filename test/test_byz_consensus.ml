(* Byzantine-tolerant consensus (Tseng & Sardina BV-broadcast style):
   honest-only behavior here — unanimity, mixed inputs, crash tolerance
   (crashes are weaker than Byzantine faults, so f crashes must be
   survivable). The Byzantine campaigns live in test_byz and the fuzzer. *)

let run ?(crashes = []) ?(fack = 4) ~n ~seed inputs =
  Consensus.Runner.run
    (Consensus.Byz_consensus.make ~seed ())
    ~topology:(Amac.Topology.clique n)
    ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack)
    ~inputs
    ~faults:(List.map (fun (node, at) -> Fault.Crash { node; at }) crashes)
    ~max_time:400_000

let check_ok what (result : Consensus.Runner.result) =
  if not (Consensus.Checker.ok result.report) then
    Alcotest.failf "%s: %s" what
      (String.concat "; " result.report.Consensus.Checker.problems)

let test_unanimous () =
  List.iter
    (fun value ->
      let result = run ~n:4 ~seed:1 (Consensus.Runner.inputs_all ~n:4 value) in
      check_ok "unanimous" result;
      Alcotest.(check (list int)) "decides the common input" [ value ]
        result.report.decided_values)
    [ 0; 1 ]

let test_mixed_inputs () =
  List.iter
    (fun seed ->
      check_ok "mixed"
        (run ~n:7 ~seed (Consensus.Runner.inputs_alternating ~n:7)))
    [ 1; 2; 3; 4; 5 ]

let test_small_networks () =
  (* n <= 3 forces f = 0: plain all-to-all agreement, still must work. *)
  check_ok "n=1" (run ~n:1 ~seed:1 [| 0 |]);
  check_ok "n=2" (run ~n:2 ~seed:2 [| 0; 1 |]);
  check_ok "n=3" (run ~n:3 ~seed:3 [| 1; 0; 1 |])

let test_survives_f_crashes () =
  (* f = floor((n-1)/3) crashes at assorted times: a crash is a Byzantine
     node that chose silence, so the quorum arithmetic must absorb it. *)
  List.iter
    (fun (n, crashes, seed) ->
      let result =
        run ~n ~seed ~crashes (Consensus.Runner.inputs_alternating ~n)
      in
      check_ok (Printf.sprintf "n=%d with %d crashes" n (List.length crashes))
        result)
    [
      (4, [ (1, 3) ], 1);
      (7, [ (0, 1); (4, 8) ], 2);
      (10, [ (2, 0); (5, 6); (8, 12) ], 3);
    ]

let test_requires_n () =
  Alcotest.check_raises "needs n"
    (Invalid_argument "Byz_consensus: requires knowledge of n") (fun () ->
      ignore
        (Consensus.Runner.run
           (Consensus.Byz_consensus.make ~seed:1 ())
           ~give_n:false
           ~topology:(Amac.Topology.clique 4)
           ~scheduler:Amac.Scheduler.synchronous ~inputs:[| 0; 1; 0; 1 |]))

let test_non_binary_rejected () =
  Alcotest.check_raises "binary only"
    (Invalid_argument "Byz_consensus: binary inputs only") (fun () ->
      ignore (run ~n:2 ~seed:1 [| 0; 3 |]))

let test_message_ids () =
  let result = run ~n:4 ~seed:9 (Consensus.Runner.inputs_alternating ~n:4) in
  Alcotest.(check int) "one id per message" 1
    result.outcome.max_ids_per_message

let prop_consensus_with_f_crashes =
  QCheck.Test.make
    ~name:"byz-consensus: consensus under up to f crash failures" ~count:100
    QCheck.(
      quad (int_range 1 10) small_int (int_range 1 6)
        (pair
           (list_of_size (Gen.return 10) bool)
           (list_of_size (Gen.return 3) (int_range 0 30))))
    (fun (n, seed, fack, (bits, crash_times)) ->
      let f = if n <= 3 then 0 else (n - 1) / 3 in
      let crashes =
        List.filteri (fun i _ -> i < f)
          (List.mapi (fun i t -> (i, t)) crash_times)
      in
      let inputs = Array.init n (fun i -> if List.nth bits i then 1 else 0) in
      let result = run ~n ~seed ~fack ~crashes inputs in
      Consensus.Checker.ok result.report)

let () =
  Alcotest.run "byz_consensus"
    [
      ( "unit",
        [
          Alcotest.test_case "unanimous" `Quick test_unanimous;
          Alcotest.test_case "mixed inputs" `Quick test_mixed_inputs;
          Alcotest.test_case "small networks" `Quick test_small_networks;
          Alcotest.test_case "survives f crashes" `Quick
            test_survives_f_crashes;
          Alcotest.test_case "requires n" `Quick test_requires_n;
          Alcotest.test_case "non-binary rejected" `Quick
            test_non_binary_rejected;
          Alcotest.test_case "message ids" `Quick test_message_ids;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_consensus_with_f_crashes ] );
    ]
