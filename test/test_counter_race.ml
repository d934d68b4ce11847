(* Counter-race consensus (Newport & Robinson adaptation): crash-stop
   tolerance with no knowledge of n, plus the margin knob — margin 3 is the
   safe default, margin 2 is demonstrably broken, and this suite pins both
   sides so the harness is provably looking. *)

let run ?(margin = 3) ?(crashes = []) ?(fack = 4) ~n ~seed inputs =
  Consensus.Runner.run
    (Counter_race.make ~margin ())
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
  check_ok "n=1" (run ~n:1 ~seed:1 [| 1 |]);
  check_ok "n=2" (run ~n:2 ~seed:2 [| 0; 1 |])

let test_no_n_needed () =
  (* The headline property inherited from Newport-Robinson: the race works
     without knowing how many contestants there are. *)
  let result =
    Consensus.Runner.run
      (Counter_race.make ())
      ~give_n:false
      ~topology:(Amac.Topology.clique 4)
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 7) ~fack:3)
      ~inputs:[| 0; 1; 1; 0 |] ~max_time:200_000
  in
  check_ok "anonymous n" result

let test_survives_crashes () =
  (* Crash-stop with no f budget: any number of crashes, survivors decide. *)
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
      (5, [ (0, 1); (2, 4); (3, 9); (4, 14) ], 3);
      (7, [ (0, 1); (2, 4); (5, 9) ], 4);
      (4, [ (2, 3) ], 5);
    ]

let test_non_binary_rejected () =
  Alcotest.check_raises "binary only"
    (Invalid_argument "Counter_race: binary inputs only") (fun () ->
      ignore (run ~n:2 ~seed:1 [| 0; 2 |]))

let test_message_ids () =
  let result = run ~n:4 ~seed:9 (Consensus.Runner.inputs_alternating ~n:4) in
  Alcotest.(check int) "one id per message" 1
    result.outcome.max_ids_per_message

(* One fixed sweep of seeded crash schedules, judged at both margins. The
   sweep must exhibit at least one agreement violation at margin 2 (the
   decision fires while a rival pair is still racing undetected) while
   margin 3 stays safe across every one of the same runs. *)
let sweep margin =
  let violations = ref 0 in
  for seed = 0 to 99 do
    let n = 3 + (seed mod 3) in
    let crashes = [ (seed mod n, seed mod 7) ] in
    let result =
      run ~margin ~n ~seed ~fack:(2 + (seed mod 4)) ~crashes
        (Consensus.Runner.inputs_alternating ~n)
    in
    if not (Consensus.Checker.safe result.report) then incr violations
  done;
  !violations

let test_margin_two_is_unsafe () =
  let broken = sweep 2 in
  Alcotest.(check bool)
    (Printf.sprintf "margin 2 violated safety in %d/100 runs" broken)
    true (broken > 0)

let test_margin_three_is_safe () =
  Alcotest.(check int) "margin 3 safe across the same sweep" 0 (sweep 3)

let prop_consensus_with_random_crashes =
  QCheck.Test.make
    ~name:"counter-race: consensus under arbitrary crash schedules" ~count:150
    QCheck.(
      quad (int_range 1 8) small_int (int_range 1 6)
        (pair
           (list_of_size (Gen.return 8) bool)
           (list_of_size (Gen.return 3) (int_range 0 30))))
    (fun (n, seed, fack, (bits, crash_times)) ->
      (* Crash any minority-or-more, but keep at least one node up. *)
      let crashes =
        List.filteri
          (fun i _ -> i < n - 1)
          (List.mapi (fun i t -> (i, t)) crash_times)
      in
      let inputs = Array.init n (fun i -> if List.nth bits i then 1 else 0) in
      let result = run ~n ~seed ~fack ~crashes inputs in
      Consensus.Checker.ok result.report)

let () =
  Alcotest.run "counter_race"
    [
      ( "unit",
        [
          Alcotest.test_case "unanimous" `Quick test_unanimous;
          Alcotest.test_case "mixed inputs" `Quick test_mixed_inputs;
          Alcotest.test_case "tiny networks" `Quick test_single_and_pair;
          Alcotest.test_case "no knowledge of n" `Quick test_no_n_needed;
          Alcotest.test_case "survives crashes" `Quick test_survives_crashes;
          Alcotest.test_case "non-binary rejected" `Quick
            test_non_binary_rejected;
          Alcotest.test_case "message ids" `Quick test_message_ids;
          Alcotest.test_case "margin 2 is unsafe" `Quick
            test_margin_two_is_unsafe;
          Alcotest.test_case "margin 3 is safe" `Quick test_margin_three_is_safe;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_consensus_with_random_crashes ] );
    ]
