(* Checker logic over hand-built outcomes. *)

let outcome ?(extra = []) ?(crashed = [||]) decisions : Amac.Engine.outcome =
  let n = Array.length decisions in
  {
    decisions;
    extra_decides = extra;
    crashed = (if Array.length crashed = n then crashed else Array.make n false);
    incarnations = Array.make n 0;
    broadcasts = 0;
    deliveries = 0;
    discarded = 0;
    dropped = 0;
    link_dropped = 0;
    stuttered = 0;
    suppressed = 0;
    substituted = 0;
    max_ids_per_message = 0;
    end_time = 0;
    events_processed = 0;
    unreliable_deliveries = 0;
    injected = 0;
    topo_changes = 0;
    hit_max_time = false;
    trace = [];
  }

let test_all_good () =
  let report =
    Consensus.Checker.check ~inputs:[| 0; 1; 0 |]
      (outcome [| Some (0, 5); Some (0, 6); Some (0, 4) |])
  in
  Alcotest.(check bool) "ok" true (Consensus.Checker.ok report);
  Alcotest.(check bool) "safe" true (Consensus.Checker.safe report);
  Alcotest.(check (list int)) "values" [ 0 ] report.decided_values;
  Alcotest.(check (list string)) "no problems" [] report.problems

let test_agreement_violation () =
  let report =
    Consensus.Checker.check ~inputs:[| 0; 1 |]
      (outcome [| Some (0, 1); Some (1, 1) |])
  in
  Alcotest.(check bool) "agreement" false report.agreement;
  Alcotest.(check bool) "not ok" false (Consensus.Checker.ok report);
  Alcotest.(check bool) "not safe" false (Consensus.Checker.safe report);
  Alcotest.(check bool) "explained" true (report.problems <> [])

let test_validity_violation () =
  let report =
    Consensus.Checker.check ~inputs:[| 1; 1 |]
      (outcome [| Some (0, 1); Some (0, 2) |])
  in
  Alcotest.(check bool) "validity" false report.validity;
  Alcotest.(check bool) "agreement still fine" true report.agreement

let test_termination_violation () =
  let report =
    Consensus.Checker.check ~inputs:[| 0; 0 |] (outcome [| Some (0, 1); None |])
  in
  Alcotest.(check bool) "termination" false report.termination;
  Alcotest.(check bool) "safe but not ok" true
    (Consensus.Checker.safe report && not (Consensus.Checker.ok report))

let test_crashed_node_excused () =
  let report =
    Consensus.Checker.check ~inputs:[| 0; 0 |]
      (outcome ~crashed:[| false; true |] [| Some (0, 1); None |])
  in
  Alcotest.(check bool) "crashed need not decide" true report.termination;
  Alcotest.(check bool) "ok" true (Consensus.Checker.ok report)

let test_irrevocability_violation () =
  let report =
    Consensus.Checker.check ~inputs:[| 0; 1 |]
      (outcome ~extra:[ (0, 1, 9) ] [| Some (0, 1); Some (0, 2) |])
  in
  Alcotest.(check bool) "irrevocability" false report.irrevocability;
  Alcotest.(check bool) "not safe" false (Consensus.Checker.safe report)

let test_no_decisions () =
  let report = Consensus.Checker.check ~inputs:[| 0; 1 |] (outcome [| None; None |]) in
  Alcotest.(check bool) "agreement vacuous" true report.agreement;
  Alcotest.(check bool) "validity vacuous" true report.validity;
  Alcotest.(check bool) "termination fails" false report.termination

let test_input_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Checker.check: inputs length mismatches outcome")
    (fun () ->
      ignore (Consensus.Checker.check ~inputs:[| 0 |] (outcome [| None; None |])))

(* Honest-mask (Byzantine-aware) judgments. The two directions guard
   against a silently vacuous checker: adversary noise must NOT flag, an
   honest split MUST. *)

let test_byz_decide_not_flagged () =
  (* Node 2 is Byzantine and "decides" 7 — a value nobody holds. Honest
     nodes agree on 0: clean report. *)
  let report =
    Consensus.Checker.check ~honest:[| true; true; false |]
      ~inputs:[| 0; 0; 1 |]
      (outcome [| Some (0, 4); Some (0, 5); Some (7, 1) |])
  in
  Alcotest.(check bool) "ok despite byz noise" true
    (Consensus.Checker.ok report);
  Alcotest.(check (list int)) "honest values only" [ 0 ] report.decided_values

let test_honest_split_is_flagged () =
  (* Same mask, but now two HONEST nodes disagree: must flag. *)
  let report =
    Consensus.Checker.check ~honest:[| true; true; false |]
      ~inputs:[| 0; 1; 1 |]
      (outcome [| Some (0, 4); Some (1, 5); Some (7, 1) |])
  in
  Alcotest.(check bool) "agreement violated" false report.agreement;
  Alcotest.(check (list int)) "byz value still excluded" [ 0; 1 ]
    report.decided_values

let test_byz_input_excluded_from_validity () =
  (* Every honest node holds 0; the Byzantine node's nominal input 1 must
     not legitimize a decision of 1 planted by the adversary. *)
  let report =
    Consensus.Checker.check ~honest:[| true; true; false |]
      ~inputs:[| 0; 0; 1 |]
      (outcome [| Some (1, 4); Some (1, 5); None |])
  in
  Alcotest.(check bool) "validity violated" false report.validity

let test_byz_silence_excused () =
  (* A Byzantine node that never decides is the adversary's business, not
     a termination violation; an honest non-decider still is. *)
  let silent_byz =
    Consensus.Checker.check ~honest:[| true; false |] ~inputs:[| 0; 0 |]
      (outcome [| Some (0, 3); None |])
  in
  Alcotest.(check bool) "byz silence excused" true silent_byz.termination;
  let silent_honest =
    Consensus.Checker.check ~honest:[| false; true |] ~inputs:[| 0; 0 |]
      (outcome [| Some (0, 3); None |])
  in
  Alcotest.(check bool) "honest silence flagged" false
    silent_honest.termination

let test_byz_redecide_excused () =
  let report =
    Consensus.Checker.check ~honest:[| true; false |] ~inputs:[| 0; 0 |]
      (outcome
         ~extra:[ (1, 1, 9) ]
         [| Some (0, 3); Some (0, 2) |])
  in
  Alcotest.(check bool) "byz re-decide excused" true report.irrevocability;
  let honest_redecide =
    Consensus.Checker.check ~honest:[| true; false |] ~inputs:[| 0; 0 |]
      (outcome
         ~extra:[ (0, 1, 9) ]
         [| Some (0, 3); Some (0, 2) |])
  in
  Alcotest.(check bool) "honest re-decide flagged" false
    honest_redecide.irrevocability

let test_honest_mask_length_checked () =
  Alcotest.check_raises "mask length"
    (Invalid_argument "Checker.check: honest mask length mismatches outcome")
    (fun () ->
      ignore
        (Consensus.Checker.check ~honest:[| true |] ~inputs:[| 0; 0 |]
           (outcome [| None; None |])))

let test_degrade_excludes_byz () =
  (* Degradation liveness counts honest survivors only: byz node 1 never
     "decides" yet the honest fraction is 1.0. *)
  let honest = [| true; false; true |] in
  let o = outcome [| Some (0, 3); None; Some (0, 5) |] in
  let d =
    Consensus.Checker.degrade ~honest
      (Consensus.Checker.check ~honest ~inputs:[| 0; 0; 0 |] o)
      o
  in
  Alcotest.(check bool) "safe" true d.Consensus.Checker.safe;
  Alcotest.(check (list int)) "correct = honest" [ 0; 2 ]
    d.Consensus.Checker.correct;
  Alcotest.(check (float 0.0)) "fraction over honest" 1.0
    d.Consensus.Checker.decided_fraction

let test_pp () =
  let good =
    Consensus.Checker.check ~inputs:[| 1 |] (outcome [| Some (1, 0) |])
  in
  Alcotest.(check string) "ok rendering" "consensus ok (decided {1})"
    (Format.asprintf "%a" Consensus.Checker.pp good)

let () =
  Alcotest.run "checker"
    [
      ( "unit",
        [
          Alcotest.test_case "all good" `Quick test_all_good;
          Alcotest.test_case "agreement violation" `Quick
            test_agreement_violation;
          Alcotest.test_case "validity violation" `Quick
            test_validity_violation;
          Alcotest.test_case "termination violation" `Quick
            test_termination_violation;
          Alcotest.test_case "crashed node excused" `Quick
            test_crashed_node_excused;
          Alcotest.test_case "irrevocability violation" `Quick
            test_irrevocability_violation;
          Alcotest.test_case "no decisions" `Quick test_no_decisions;
          Alcotest.test_case "input mismatch" `Quick test_input_mismatch;
          Alcotest.test_case "pretty printing" `Quick test_pp;
        ] );
      ( "honest mask",
        [
          Alcotest.test_case "byz decide not flagged" `Quick
            test_byz_decide_not_flagged;
          Alcotest.test_case "honest split is flagged" `Quick
            test_honest_split_is_flagged;
          Alcotest.test_case "byz input excluded from validity" `Quick
            test_byz_input_excluded_from_validity;
          Alcotest.test_case "byz silence excused" `Quick
            test_byz_silence_excused;
          Alcotest.test_case "byz re-decide excused" `Quick
            test_byz_redecide_excused;
          Alcotest.test_case "mask length checked" `Quick
            test_honest_mask_length_checked;
          Alcotest.test_case "degradation over honest nodes" `Quick
            test_degrade_excludes_byz;
        ] );
    ]
