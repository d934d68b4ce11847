(* Satellite: graceful degradation under fault plans.

   Safety is unconditional: under seeded random fault plans neither
   two-phase (within its fault envelope: crashes and stutter) nor wPAXOS
   (full envelope: crash-recovery, loss, partition-and-heal, stutter) ever
   violates agreement, validity or irrevocability. Liveness degrades to a
   measurable floor: hardened wPAXOS decides on every correct node once the
   loss windows close, and the acceptance demo runs the combined
   crash-recovery + partition-and-heal + lossy-link plan with wPAXOS
   deciding everywhere while two-phase stays safe but undecided. Finally,
   the fault fuzzer pointed at the unhardened wPAXOS must find and shrink a
   liveness failure — the hardening is load-bearing. *)

let scheduler = Amac.Scheduler.max_delay ~fack:3

(* A seeded, always-valid random plan. [full] is wPAXOS's envelope —
   crash-recovery, loss, partition-and-heal, stutter. Without [full] it is
   two-phase's: crashes and stutter only, because amnesiac recovery makes a
   voter vote twice and loss breaks ack-implies-delivered — under either,
   two-phase genuinely loses agreement (the fault fuzzer's self-test in
   bin/mcheck_fuzz exhibits both). *)
let random_plan ?(stutter = true) rng ~n ~full =
  let open Fault in
  let t0 = Amac.Rng.int rng 20 in
  let width () = 1 + Amac.Rng.int rng 20 in
  let victim = Amac.Rng.int rng n in
  let crash = Crash { node = victim; at = t0 } in
  let plan =
    if full && Amac.Rng.bool rng then
      [ crash; Recover { node = victim; at = t0 + 1 + width () } ]
    else [ crash ]
  in
  let stutter_event () =
    Stutter
      { node = Amac.Rng.int rng n; from_ = Amac.Rng.int rng 20;
        until = Amac.Rng.int rng 20 + 21 }
  in
  let plan =
    if not full then
      if stutter && Amac.Rng.bool rng then stutter_event () :: plan else plan
    else begin
      let u = Amac.Rng.int rng n in
      let v = (u + 1 + Amac.Rng.int rng (n - 1)) mod n in
      let from_ = Amac.Rng.int rng 20 in
      let cut_size = 1 + Amac.Rng.int rng (n - 1) in
      let cut = List.init cut_size (fun i -> (victim + i) mod n) in
      let pfrom = Amac.Rng.int rng 20 in
      let plan =
        Link_drop { edge = (u, v); from_; until = from_ + width () }
        :: Partition { cut; from_ = pfrom; until = pfrom + width () }
        :: plan
      in
      if stutter then stutter_event () :: plan else plan
    end
  in
  validate ~n plan;
  plan

let degradation_of algorithm ~n ~faults =
  let result =
    Consensus.Runner.run algorithm
      ~topology:(Amac.Topology.clique n)
      ~scheduler
      ~inputs:(Consensus.Runner.inputs_alternating ~n)
      ~faults ~max_time:100_000
  in
  result.Consensus.Runner.degradation

let test_two_phase_safe_under_seeded_plans () =
  let rng = Amac.Rng.create 11 in
  for _ = 1 to 40 do
    let n = 2 + Amac.Rng.int rng 4 in
    let faults = random_plan rng ~n ~full:false in
    let d = degradation_of Consensus.Two_phase.algorithm ~n ~faults in
    if not d.Consensus.Checker.safe then
      Alcotest.failf "two-phase unsafe under %s" (Fault.to_string faults)
  done

let test_wpaxos_safe_under_seeded_plans () =
  let rng = Amac.Rng.create 12 in
  List.iter
    (fun algorithm ->
      for _ = 1 to 40 do
        let n = 2 + Amac.Rng.int rng 4 in
        let faults = random_plan rng ~n ~full:true in
        let d = degradation_of algorithm ~n ~faults in
        if not d.Consensus.Checker.safe then
          Alcotest.failf "wpaxos unsafe under %s" (Fault.to_string faults)
      done)
    [ Consensus.Wpaxos.make (); Consensus.Wpaxos.make ~retransmit:false () ]

(* Hardened wPAXOS is live once the faults quiesce: every node that is up
   at the end decides, whatever mix of loss, partition and crash-recovery
   the plan threw at the run. Stutter windows are excluded from the claim
   (not from the safety tests above): stutter can suppress the Decide
   action itself, which no protocol can detect or repair — the node has no
   clock to rebroadcast by and believes it already decided. See DESIGN.md
   "Fault model" for the full argument. *)
let test_wpaxos_decides_once_windows_close () =
  let rng = Amac.Rng.create 13 in
  for _ = 1 to 25 do
    let n = 3 + Amac.Rng.int rng 3 in
    let faults = random_plan ~stutter:false rng ~n ~full:true in
    let d = degradation_of (Consensus.Wpaxos.make ()) ~n ~faults in
    if not d.Consensus.Checker.safe then
      Alcotest.failf "unsafe under %s" (Fault.to_string faults);
    if d.Consensus.Checker.decided_fraction < 1.0 then
      Alcotest.failf "only %d/%d correct nodes decided under %s"
        d.Consensus.Checker.decided_correct d.Consensus.Checker.correct_total
        (Fault.to_string faults)
  done

(* The acceptance demo: one plan combining crash-recovery, a lossy link and
   partition-and-heal. Hardened wPAXOS decides on all five nodes (node 4's
   new incarnation included); two-phase under the same plan stays safe but
   cannot decide — its ack-implies-delivered reasoning is exactly what the
   loss windows break. *)
let demo_plan =
  [
    Fault.Crash { node = 4; at = 3 };
    Fault.Link_drop { edge = (0, 1); from_ = 0; until = 25 };
    Fault.Partition { cut = [ 0; 1 ]; from_ = 5; until = 30 };
    Fault.Recover { node = 4; at = 35 };
    Fault.Link_drop { edge = (2, 3); from_ = 30; until = 40 };
  ]

let test_demo_wpaxos_decides_two_phase_does_not () =
  let n = 5 in
  Fault.validate ~n demo_plan;
  let d = degradation_of (Consensus.Wpaxos.make ()) ~n ~faults:demo_plan in
  Alcotest.(check bool) "wpaxos safe" true d.Consensus.Checker.safe;
  Alcotest.(check int) "all five correct" 5 d.Consensus.Checker.correct_total;
  Alcotest.(check int) "all five decide" 5 d.Consensus.Checker.decided_correct;
  Alcotest.(check bool) "recovered node went through an incarnation" true
    (d.Consensus.Checker.max_incarnation = 1);
  Alcotest.(check bool) "faults actually bit" true
    (d.Consensus.Checker.link_dropped > 0);
  (match d.Consensus.Checker.max_decide_time with
  | Some t ->
      Alcotest.(check bool) "decides after the plan quiesces" true
        (t >= 40 (* the plan's horizon: its last window closes at 40 *))
  | None -> Alcotest.fail "no decision time");
  let d2 = degradation_of Consensus.Two_phase.algorithm ~n ~faults:demo_plan in
  Alcotest.(check bool) "two-phase safe under this plan" true
    d2.Consensus.Checker.safe;
  Alcotest.(check bool) "two-phase undecided" true
    (d2.Consensus.Checker.decided_fraction < 1.0)

(* The hardening is what buys the liveness above: the fault fuzzer pointed
   at ~retransmit:false (termination checking on) finds a plan that
   silences the paper's protocol forever, and shrinks it. *)
let test_fuzzer_breaks_unhardened_liveness () =
  let config =
    {
      Mcheck.Fuzz.default with
      check_termination = true;
      max_time = 200_000;
      faults = Some Mcheck.Fuzz.default_fault_profile;
    }
  in
  match
    (Mcheck.Campaign.run
       (Mcheck.Fuzz.campaign config (Consensus.Wpaxos.make ~retransmit:false ()))
       ~iterations:50 ~seed:1)
      .counterexample
  with
  | None -> Alcotest.fail "expected a liveness counterexample"
  | Some cx ->
      let open Mcheck.Fuzz in
      Alcotest.(check bool) "violation is liveness, not safety" true
        (List.for_all
           (function
             | Consensus.Checker.Termination_violation _ -> true
             | _ -> false)
           cx.violations);
      Alcotest.(check bool) "the plan is the culprit" true
        (cx.case.faults <> []);
      Alcotest.(check bool) "shrinking shrank it" true
        (List.length cx.case.faults <= List.length cx.original.faults
        && cx.case.n <= cx.original.n)

let () =
  Alcotest.run "degradation"
    [
      ( "safety",
        [
          Alcotest.test_case "two-phase safe under seeded plans" `Quick
            test_two_phase_safe_under_seeded_plans;
          Alcotest.test_case "wpaxos safe under seeded plans" `Quick
            test_wpaxos_safe_under_seeded_plans;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "wpaxos decides once windows close" `Quick
            test_wpaxos_decides_once_windows_close;
          Alcotest.test_case "demo: wpaxos decides, two-phase stalls" `Quick
            test_demo_wpaxos_decides_two_phase_does_not;
          Alcotest.test_case "fuzzer breaks unhardened liveness" `Quick
            test_fuzzer_breaks_unhardened_liveness;
        ] );
    ]
