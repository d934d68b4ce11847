(* Schedule-space exploration subsystem: the fuzzer must find (and shrink) a
   seeded violation in the deliberately broken two-phase variant, stay quiet
   on the correct algorithms, and the bounded explorer must exhaust the
   3-clique for two-phase. *)

module Fuzz = Mcheck.Fuzz
module Campaign = Mcheck.Campaign
module Explore = Mcheck.Explore

(* Two-phase assumes a single hop network, so it is fuzzed on cliques. *)
let clique_only = { Fuzz.default with kinds = [ Fuzz.Clique ] }
let iterations = 300
let literal = Fuzz.campaign clique_only Consensus.Two_phase.literal
let run ?(iterations = iterations) campaign ~seed =
  Campaign.run campaign ~iterations ~seed

let has_agreement =
  List.exists (function
    | Consensus.Checker.Agreement_violation _ -> true
    | _ -> false)

let test_fuzzer_catches_literal () =
  let outcome = run literal ~seed:1 in
  match outcome.counterexample with
  | None -> Alcotest.fail "fuzzer missed the erratum in Two_phase.literal"
  | Some cx ->
      Alcotest.(check bool) "agreement violation" true
        (has_agreement cx.violations);
      Alcotest.(check bool) "shrunk to <= 4 nodes" true (cx.case.Fuzz.n <= 4);
      Alcotest.(check bool) "shrunk no larger than original" true
        (cx.case.Fuzz.n <= cx.original.Fuzz.n);
      let report = Format.asprintf "%a" literal.pp cx in
      Alcotest.(check bool) "timeline rendered" true
        (not (String.ends_with ~suffix:"timeline:\n" report))

let test_counterexample_replays_from_case () =
  (* The shrunk case is self-contained data: replaying it through
     Scheduler.replay reproduces the violation. *)
  let outcome = run literal ~seed:1 in
  let cx = Option.get outcome.counterexample in
  let replayed = (Option.get literal.shrink).replay cx.case in
  Alcotest.(check bool) "replay still fails" true (has_agreement replayed)

let test_counterexample_replays_from_seed () =
  (* The reported (seed, iteration) pair alone regenerates the original
     failing run. *)
  let outcome = run literal ~seed:1 in
  let cx = Option.get outcome.counterexample in
  let case, violations =
    literal.generate (Campaign.derive ~seed:1 ~iteration:cx.iteration)
  in
  Alcotest.(check bool) "same case regenerated" true (case = cx.original);
  Alcotest.(check bool) "still failing" true (has_agreement violations)

let test_generate_deterministic () =
  let once () =
    fst
      ((Fuzz.campaign Fuzz.default Consensus.Two_phase.algorithm).generate
         (Campaign.derive ~seed:42 ~iteration:7))
  in
  Alcotest.(check bool) "same seed, same case" true (once () = once ())

let test_fuzzer_clean_on_corrected () =
  (* Same budget that catches the erratum within a handful of iterations
     finds nothing against the corrected rule. *)
  let outcome =
    run (Fuzz.campaign clique_only Consensus.Two_phase.algorithm) ~seed:1
  in
  Alcotest.(check bool) "no counterexample" true
    (outcome.counterexample = None);
  Alcotest.(check int) "all iterations ran" iterations outcome.iterations_run

let test_fuzzer_clean_on_multihop_algorithms () =
  let check name algorithm ~seed =
    let campaign = Fuzz.campaign Fuzz.default algorithm in
    match (run ~iterations:60 campaign ~seed).counterexample with
    | None -> ()
    | Some cx ->
        Alcotest.failf "%s violated: %s" name
          (Format.asprintf "%a" campaign.pp cx)
  in
  check "wpaxos" (Consensus.Wpaxos.make ()) ~seed:2;
  check "flood-gather" (Consensus.Flood_gather.make ()) ~seed:3;
  check "flood-paxos" (Consensus.Flood_paxos.make ()) ~seed:4;
  check "ben-or" (Consensus.Ben_or.make ~seed:7 ()) ~seed:5

let test_explorer_exhausts_two_phase_n3 () =
  (* The acceptance bar: every F_ack-respecting delivery ordering of the
     two-phase algorithm on the 3-clique, crash-free, is safe and decides. *)
  let stats =
    Explore.explore
      { Explore.default with check_termination = true }
      Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 3) ~inputs:[| 0; 1; 1 |]
  in
  Alcotest.(check bool) "explored something" true (stats.Explore.states > 0);
  Alcotest.(check bool) "not truncated (a real verdict)" false
    stats.Explore.truncated;
  Alcotest.(check int) "no violations" 0
    (List.length stats.Explore.violations);
  Alcotest.(check bool) "dedup did work" true (stats.Explore.dedup_hits > 0);
  Alcotest.(check bool) "sleep sets pruned" true (stats.Explore.sleep_skips > 0)

let test_explorer_catches_literal () =
  (* Exhaustive search finds the erratum without any seed luck, and returns
     a concrete witness schedule. *)
  let stats =
    Explore.explore Explore.default Consensus.Two_phase.literal
      ~topology:(Amac.Topology.clique 3) ~inputs:[| 0; 1; 1 |]
  in
  match stats.Explore.violations with
  | [] -> Alcotest.fail "explorer missed the erratum in Two_phase.literal"
  | (violation, path) :: _ ->
      Alcotest.(check bool) "agreement violation" true
        (has_agreement [ violation ]);
      Alcotest.(check bool) "witness schedule attached" true (path <> [])

let test_explorer_crash_branching () =
  (* A crash budget multiplies the space (every prefix of every broadcast
     can be cut short) but must not break safety. *)
  let crash_free =
    Explore.explore Explore.default Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 2) ~inputs:[| 0; 1 |]
  in
  let crashy =
    Explore.explore
      { Explore.default with crash_budget = 1 }
      Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 2) ~inputs:[| 0; 1 |]
  in
  Alcotest.(check int) "crash-free safe" 0
    (List.length crash_free.Explore.violations);
  Alcotest.(check int) "safe under one crash" 0
    (List.length crashy.Explore.violations);
  Alcotest.(check bool) "crashes enlarge the space" true
    (crashy.Explore.states > crash_free.Explore.states)

let test_explorer_rejects_bad_inputs () =
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Explore.explore: inputs length mismatches topology")
    (fun () ->
      ignore
        (Explore.explore Explore.default Consensus.Two_phase.algorithm
           ~topology:(Amac.Topology.clique 3) ~inputs:[| 0 |]))

let test_explorer_keying_equivalence () =
  (* The fingerprint-keyed seen-set must carve up the state space exactly
     as the Marshal+MD5 one: same states, same transitions, same
     reduction counters — on both the correct and the violating
     algorithm. *)
  let check name algorithm =
    let run keying =
      Explore.explore
        { Explore.default with crash_budget = 1; keying }
        algorithm
        ~topology:(Amac.Topology.clique 2) ~inputs:[| 0; 1 |]
    in
    let fast = run `Fast and marshal = run `Marshal in
    Alcotest.(check int) (name ^ ": same states") marshal.Explore.states
      fast.Explore.states;
    Alcotest.(check int) (name ^ ": same transitions")
      marshal.Explore.transitions fast.Explore.transitions;
    Alcotest.(check int) (name ^ ": same dedup hits")
      marshal.Explore.dedup_hits fast.Explore.dedup_hits;
    Alcotest.(check int) (name ^ ": same sleep skips")
      marshal.Explore.sleep_skips fast.Explore.sleep_skips;
    Alcotest.(check int) (name ^ ": same violation count")
      (List.length marshal.Explore.violations)
      (List.length fast.Explore.violations)
  in
  check "two-phase" Consensus.Two_phase.algorithm;
  check "literal" Consensus.Two_phase.literal

let test_explorer_collision_check () =
  (* Debug mode: every `Fast lookup is double-checked against the Marshal
     digest; with 63-bit fingerprints a disagreement over this space is a
     code bug, not bad luck. *)
  let stats =
    Explore.explore
      { Explore.default with crash_budget = 1; check_collisions = true }
      Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 2) ~inputs:[| 0; 1 |]
  in
  Alcotest.(check int) "no fingerprint/digest disagreements" 0
    stats.Explore.collisions;
  Alcotest.(check bool) "revisits actually checked" true
    (stats.Explore.dedup_hits > 0)

let () =
  Alcotest.run "mcheck"
    [
      ( "fuzz",
        [
          Alcotest.test_case "catches the two-phase erratum" `Quick
            test_fuzzer_catches_literal;
          Alcotest.test_case "counterexample replays from case" `Quick
            test_counterexample_replays_from_case;
          Alcotest.test_case "counterexample replays from seed" `Quick
            test_counterexample_replays_from_seed;
          Alcotest.test_case "generation is deterministic" `Quick
            test_generate_deterministic;
          Alcotest.test_case "clean on corrected two-phase" `Quick
            test_fuzzer_clean_on_corrected;
          Alcotest.test_case "clean on multihop algorithms" `Quick
            test_fuzzer_clean_on_multihop_algorithms;
        ] );
      ( "explore",
        [
          Alcotest.test_case "exhausts two-phase on the 3-clique" `Slow
            test_explorer_exhausts_two_phase_n3;
          Alcotest.test_case "catches the two-phase erratum" `Quick
            test_explorer_catches_literal;
          Alcotest.test_case "crash branching" `Quick
            test_explorer_crash_branching;
          Alcotest.test_case "input validation" `Quick
            test_explorer_rejects_bad_inputs;
          Alcotest.test_case "fast and marshal keying agree" `Quick
            test_explorer_keying_equivalence;
          Alcotest.test_case "collision check finds none" `Quick
            test_explorer_collision_check;
        ] );
    ]
