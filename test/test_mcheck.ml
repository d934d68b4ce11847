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

(* Pinned at CI's settings (MCHECK_ITERS=500, MCHECK_SEED=1) from the
   last revision that kept crashes outside the fault plan: moving them into
   it drew nothing new, so the same iteration fails and shrinks to the
   same case. The termination campaign's crash is load-bearing (two-phase
   blocks only under a crash), so its shrunk plan keeps one. *)
let test_self_test_pinned () =
  let o = run ~iterations:500 literal ~seed:1 in
  let cx = Option.get o.counterexample in
  Alcotest.(check int) "literal: first failing iteration" 3 cx.iteration;
  Alcotest.(check int) "literal: drawn n" 6 cx.original.Fuzz.n;
  Alcotest.(check bool) "literal: drawn no crash" true
    (cx.original.Fuzz.faults = []);
  Alcotest.(check int) "literal: shrunk n" 2 cx.case.Fuzz.n;
  Alcotest.(check bool) "literal: shrunk plan empty" true
    (cx.case.Fuzz.faults = []);
  Alcotest.(check int) "literal: shrunk schedule" 2
    (List.length cx.case.Fuzz.plan);
  let termination =
    Fuzz.campaign
      { clique_only with check_termination = true }
      Consensus.Two_phase.algorithm
  in
  let o = run ~iterations:500 termination ~seed:2 in
  let cx = Option.get o.counterexample in
  Alcotest.(check int) "termination: first failing iteration" 6 cx.iteration;
  Alcotest.(check string) "termination: drawn crashes"
    "crash 1 @t0\ncrash 2 @t3"
    (Fault.to_string cx.original.Fuzz.faults);
  Alcotest.(check int) "termination: shrunk n" 3 cx.case.Fuzz.n;
  Alcotest.(check string) "termination: shrunk crashes" "crash 2 @t3"
    (Fault.to_string cx.case.Fuzz.faults)

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

(* Above [Explore]'s width, a sleep set no longer fits an [int] mask: one
   bit per directed edge and per ack, so 2|E| + n <= 62. *)
let test_explorer_rejects_wide_topologies () =
  let explore topology =
    Explore.explore
      { Explore.default with max_states = 1_000 }
      Consensus.Two_phase.algorithm ~topology
      ~inputs:(Array.make (Amac.Topology.size topology) 0)
  in
  let rejected name topology ~steps =
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf
            "Explore.explore: %d sleepable steps (2|E| + n) exceed the 62 \
             bits of a sleep mask"
            steps))
      (fun () -> ignore (explore topology))
  in
  let accepted name topology =
    Alcotest.(check bool) name true ((explore topology).Explore.states > 0)
  in
  let ring20 = Amac.Topology.ring 20 in
  rejected "clique:8 (64 steps)" (Amac.Topology.clique 8) ~steps:64;
  accepted "line:20 (58 steps)" (Amac.Topology.line 20);
  let chords extra =
    Amac.Topology.of_edges ~n:20 (Amac.Topology.edges ring20 @ extra)
  in
  accepted "ring:20 + 1 chord (62 steps)" (chords [ (0, 10) ]);
  rejected "ring:20 + 2 chords (64 steps)" (chords [ (0, 10); (5, 15) ])
    ~steps:64

(* Pinned exploration counts (two-phase, alternating inputs): a change to
   the sleep-set algebra, the seen table or the fingerprint caches that
   alters which states are visited shows here. *)
let test_explorer_pinned_counts () =
  let check name config n
      ~expect:(states, transitions, dedup, skips, truncated) =
    let s =
      Explore.explore config Consensus.Two_phase.algorithm
        ~topology:(Amac.Topology.clique n)
        ~inputs:(Consensus.Runner.inputs_alternating ~n)
    in
    Alcotest.(check (list int))
      (name ^ ": states / transitions / dedup hits / sleep skips")
      [ states; transitions; dedup; skips ]
      [ s.Explore.states; s.transitions; s.dedup_hits; s.sleep_skips ];
    Alcotest.(check bool) (name ^ ": truncated") truncated s.truncated;
    Alcotest.(check int) (name ^ ": safe") 0 (List.length s.violations)
  in
  let d = Explore.default in
  check "clique:3" d 3 ~expect:(353077, 527145, 122663, 342666, false);
  (* 17 of these cells end the run storing two sleep sets. *)
  List.iter
    (fun (name, keying) ->
      check
        ("clique:3, one crash, " ^ name)
        { d with crash_budget = 1; max_states = 100_000; keying }
        3
        ~expect:(100056, 185313, 81731, 24439, true))
    [ ("fast", `Fast); ("marshal", `Marshal) ];
  (* 2,506 of these cells end the run storing two or more sleep sets. *)
  check "clique:4" { d with max_states = 200_000 } 4
    ~expect:(200129, 301668, 82778, 407684, true)

(* Pinned configuration keys: folds of both key functions over 50k sampled
   clique:3 configurations, so a change to the fingerprint fold or its
   caches that alters any key shows here. *)
let test_keys_pinned () =
  let ss =
    Explore.sample
      { Explore.default with crash_budget = 1 }
      Consensus.Two_phase.algorithm ~topology:(Amac.Topology.clique 3)
      ~inputs:(Consensus.Runner.inputs_alternating ~n:3) ~max_samples:50_000
  in
  Alcotest.(check int) "sampled" 50_000 (Explore.sample_size ss);
  Alcotest.(check int) "keys_fast" 2568398093489138932 (Explore.keys_fast ss);
  Alcotest.(check int) "keys_marshal" 53088716 (Explore.keys_marshal ss)

(* Reference model for [Mcheck.Seen]: a Hashtbl of visit cells, each the
   antichain of sleep sets (lists of bit indices) explored from one key. *)
let model_visit table key sleep =
  let subset a b = List.for_all (fun x -> List.mem x b) a in
  let cell =
    match Hashtbl.find_opt table key with
    | Some cell -> cell
    | None ->
        let cell = ref [] in
        Hashtbl.add table key cell;
        cell
  in
  let stored = !cell in
  if List.exists (fun old -> subset old sleep) stored then Mcheck.Seen.Dedup
  else begin
    cell := sleep :: List.filter (fun old -> not (subset sleep old)) stored;
    if stored = [] then Fresh else Revisit
  end

let mask_of bits = List.fold_left (fun m b -> m lor (1 lsl b)) 0 bits

(* One case creates a table for [bits] mask bits, from a width that fits
   one field byte to the 62 of a full mask, and visits it 5,000 times.
   Keys are dense ids (as Marshal keying hands out) from 0..5000, so one
   case stores about 2,300 keys, three times what a page of the table
   holds, and splits pages several times; a small signed range with 0, -1,
   min_int and max_int revisits keys often enough to drive cells from one
   stored set to two and back before and across those splits. Sleep sets
   are subsets of four bits, the top one the highest the table takes. A
   mask one bit wider is refused. *)
let prop_seen_matches_model =
  let case =
    QCheck.Gen.(
      oneofl [ 1; 7; 8; 9; 55; 56; 62 ] >>= fun bits ->
      let key =
        frequency
          [
            (6, int_range 0 5000);
            (3, int_range (-40) 40);
            (1, oneofl [ 0; -1; min_int; max_int ]);
          ]
      in
      let sleep =
        list_size (int_bound 3)
          (oneofl (List.filter (fun b -> b < bits) [ 0; 1; 2; bits - 1 ]))
      in
      map (fun visits -> (bits, visits)) (list_repeat 5000 (pair key sleep)))
  in
  QCheck.Test.make ~name:"Seen.visit agrees with the antichain model"
    ~count:60
    QCheck.(
      make
        ~print:Print.(pair int (list (pair int (list int))))
        case)
    (fun (bits, visits) ->
      let seen = Mcheck.Seen.create bits and model = Hashtbl.create 16 in
      List.for_all
        (fun (key, bits) ->
          let bits = List.sort_uniq Int.compare bits in
          Mcheck.Seen.visit seen key (mask_of bits)
          = model_visit model key bits)
        visits
      &&
      match Mcheck.Seen.visit seen 0 (1 lsl bits) with
      | _ -> false
      | exception Invalid_argument _ -> true)

let test_seen_rejects_negative_mask () =
  Alcotest.check_raises "negative mask"
    (Invalid_argument "Seen.visit: negative sleep mask") (fun () ->
      ignore (Mcheck.Seen.visit (Mcheck.Seen.create 1) 0 (-1)))

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
          Alcotest.test_case "self-test iterations pinned" `Quick
            test_self_test_pinned;
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
          Alcotest.test_case "sleep masks bound the width" `Quick
            test_explorer_rejects_wide_topologies;
          Alcotest.test_case "pinned exploration counts" `Slow
            test_explorer_pinned_counts;
          Alcotest.test_case "pinned configuration keys" `Slow test_keys_pinned;
        ] );
      ( "seen",
        [
          QCheck_alcotest.to_alcotest prop_seen_matches_model;
          Alcotest.test_case "rejects a negative mask" `Quick
            test_seen_rejects_negative_mask;
        ] );
    ]
