(* The Byzantine adversary tentpole: wrapper semantics (fake decide,
   silence, equivocation through the engine's substitute hook, honest-mask
   integration) and the strategy-searching fuzzer's self-tests — it must
   FIND the attacks that exist (two_phase splits under equivocation) and
   find NOTHING against the algorithm built to resist (byz_consensus inside
   its f-budget), deterministically at any job count. *)

module Model = Byz.Model
module Adapters = Byz.Adapters
module BFuzz = Byz.Fuzz
module Campaign = Mcheck.Campaign

let behavior ?(replay = 0) ?(forge = 0) ?(drop = false) () =
  { Model.replay_period = replay; forge_period = forge; drop_own = drop }

let strategy ?(byz = []) ?(tampers = []) ?(seed = 1) () =
  { Model.byz; tampers; seed }

let run_wrapped ?(record_trace = false) ?(inputs = [| 0; 1; 1 |]) ~strategy
    ~adapter algorithm =
  let n = Array.length inputs in
  let wrapped = Model.wrap ~n ~adapter ~strategy algorithm in
  Consensus.Runner.run wrapped.Model.algorithm
    ~topology:(Amac.Topology.clique n)
    ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 11) ~fack:3)
    ~inputs ~substitute:wrapped.Model.substitute ~honest:wrapped.Model.honest
    ~max_time:50_000 ~record_trace

let test_wrap_validation () =
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Byz.wrap: byz node out of range") (fun () ->
      ignore
        (Model.wrap ~n:3 ~adapter:Adapters.two_phase
           ~strategy:(strategy ~byz:[ (7, behavior ()) ] ())
           Consensus.Two_phase.algorithm));
  Alcotest.check_raises "tamper on honest sender"
    (Invalid_argument "Byz.wrap: tamper on an honest sender") (fun () ->
      ignore
        (Model.wrap ~n:3 ~adapter:Adapters.two_phase
           ~strategy:
             (strategy
                ~byz:[ (2, behavior ()) ]
                ~tampers:
                  [
                    {
                      Model.node = 0;
                      victims = [ 1 ];
                      from_ = 0;
                      until = 10;
                      kind = Model.Silence;
                    };
                  ]
                ())
           Consensus.Two_phase.algorithm))

let test_fake_decide_lets_run_finish () =
  (* A totally silent Byzantine node: drops its own broadcasts, never
     attacks. The fake Decide 0 at init must keep the engine's all-decided
     cutoff satisfiable, and the honest-masked report must be clean — the
     two honest nodes simply never hear from it. *)
  let result =
    run_wrapped ~inputs:[| 1; 1; 1 |]
      ~strategy:(strategy ~byz:[ (2, behavior ~drop:true ()) ] ())
      ~adapter:Adapters.two_phase Consensus.Two_phase.algorithm
  in
  Alcotest.(check bool) "honest consensus clean" true
    (Consensus.Checker.ok result.report);
  Alcotest.(check bool) "did not hit max_time" false
    result.outcome.hit_max_time;
  Alcotest.(check (list int)) "honest value" [ 1 ] result.report.decided_values

let silence_tamper ?(victims = [ 0 ]) node =
  { Model.node; victims; from_ = 0; until = 1_000; kind = Model.Silence }

let test_selective_silence_counted () =
  let result =
    run_wrapped ~record_trace:true
      ~strategy:
        (strategy ~byz:[ (2, behavior ()) ] ~tampers:[ silence_tamper 2 ] ())
      ~adapter:Adapters.two_phase Consensus.Two_phase.algorithm
  in
  Alcotest.(check bool) "deliveries suppressed" true
    (result.outcome.suppressed > 0);
  Alcotest.(check bool) "nothing substituted" true
    (result.outcome.substituted = 0);
  let traced =
    List.exists
      (function
        | Amac.Trace.Suppressed { node = 0; sender = 2; _ } -> true
        | _ -> false)
      result.outcome.trace
  in
  Alcotest.(check bool) "trace records the suppression" true traced

let test_equivocation_counted () =
  let tamper =
    { Model.node = 2; victims = [ 0; 1 ]; from_ = 0; until = 1_000;
      kind = Model.Equivocate }
  in
  let result =
    run_wrapped ~record_trace:true
      ~strategy:(strategy ~byz:[ (2, behavior ()) ] ~tampers:[ tamper ] ())
      ~adapter:Adapters.two_phase Consensus.Two_phase.algorithm
  in
  Alcotest.(check bool) "payloads substituted" true
    (result.outcome.substituted > 0);
  let traced =
    List.exists
      (function
        | Amac.Trace.Substituted { sender = 2; _ } -> true | _ -> false)
      result.outcome.trace
  in
  Alcotest.(check bool) "trace records the forgery" true traced

let test_equivocation_is_deterministic () =
  (* Per-delivery derived randomness: the same strategy over the same
     schedule substitutes identically — outcome counters and honest
     decisions byte-equal across runs. *)
  let go () =
    let result =
      run_wrapped
        ~strategy:
          (strategy ~byz:[ (2, behavior ~forge:2 ()) ]
             ~tampers:
               [
                 {
                   Model.node = 2; victims = [ 0 ]; from_ = 0; until = 1_000;
                   kind = Model.Equivocate;
                 };
               ]
             ())
        ~adapter:Adapters.two_phase Consensus.Two_phase.algorithm
    in
    ( result.outcome.substituted,
      result.outcome.suppressed,
      result.outcome.deliveries,
      Array.to_list result.outcome.decisions )
  in
  Alcotest.(check bool) "two identical runs" true (go () = go ())

let test_generic_adapter_replays () =
  (* The type-agnostic adversary: replay only. Works against any message
     type — here wpaxos, whose msg is structurally complex. The campaign
     must complete without exception; whether it breaks wpaxos is recorded,
     not asserted (replay against a quorum protocol is a real question, not
     a fixture). *)
  let outcome =
    Campaign.run
      (BFuzz.campaign
         { BFuzz.default with min_n = 3; max_n = 4 }
         (Consensus.Wpaxos.make ()) (Model.generic_adapter ()))
      ~iterations:60 ~seed:5
  in
  Alcotest.(check bool) "campaign completes" true
    (outcome.iterations_run <= 60)

(* --------------------------------------------------------------- *)
(* Fuzzer self-tests                                                *)
(* --------------------------------------------------------------- *)

let equivocation_only =
  {
    Model.default_profile with
    Model.allow_silence = false;
    allow_replay = false;
    allow_forge = false;
    allow_drop_own = false;
  }

let two_phase_campaign =
  BFuzz.campaign
    { BFuzz.default with profile = equivocation_only; agreement_only = true }
    Consensus.Two_phase.algorithm Adapters.two_phase

let test_finds_two_phase_equivocation () =
  let outcome = Campaign.run two_phase_campaign ~iterations:500 ~seed:42 in
  match outcome.counterexample with
  | None -> Alcotest.fail "no equivocation counterexample against two_phase"
  | Some cx ->
      let agreement_broken =
        List.exists
          (function
            | Consensus.Checker.Agreement_violation _ -> true | _ -> false)
          cx.violations
      in
      Alcotest.(check bool) "agreement violated among honest nodes" true
        agreement_broken;
      let equivocates =
        List.exists
          (fun (t : Model.tamper) -> t.Model.kind = Model.Equivocate)
          cx.case.BFuzz.strategy.Model.tampers
      in
      Alcotest.(check bool) "shrunk strategy still equivocates" true
        equivocates

let test_shrinking_minimizes () =
  let outcome = Campaign.run two_phase_campaign ~iterations:500 ~seed:42 in
  match outcome.counterexample with
  | None -> Alcotest.fail "no counterexample to shrink"
  | Some cx ->
      Alcotest.(check bool) "nodes not grown" true
        (cx.case.BFuzz.n <= cx.original.BFuzz.n);
      Alcotest.(check bool) "plan not grown" true
        (List.length cx.case.BFuzz.plan
        <= List.length cx.original.BFuzz.plan);
      (* The shrunk case must still fail on replay — violations were
         recorded from a fresh replay of the shrunk case. *)
      Alcotest.(check bool) "shrunk case still violates" true
        (cx.violations <> [])

let byz_consensus_campaign =
  BFuzz.campaign
    { BFuzz.default with min_n = 4; max_n = 7; cap_f = true }
    (Consensus.Byz_consensus.make ~seed:7 ())
    Adapters.byz_consensus

let test_byz_consensus_survives () =
  let outcome = Campaign.run byz_consensus_campaign ~iterations:400 ~seed:42 in
  (match outcome.counterexample with
  | None -> ()
  | Some cx ->
      Alcotest.failf "byz_consensus broken inside its f-budget:@.%a"
        byz_consensus_campaign.pp cx);
  Alcotest.(check int) "full campaign" 400 outcome.iterations_run

let test_ben_or_documented_unsafe () =
  (* Ben-Or tolerates crashes, not lies: forged Decided claims must be
     found. Pinning this keeps the adapter honest — if the campaign stops
     finding it, the adversary (not Ben-Or) regressed. *)
  let outcome =
    Campaign.run
      (BFuzz.campaign BFuzz.default
         (Consensus.Ben_or.make ~seed:5 ())
         Adapters.ben_or)
      ~iterations:500 ~seed:43
  in
  Alcotest.(check bool) "byzantine adversary breaks ben_or" true
    (outcome.counterexample <> None)

let test_counter_race_documented_unsafe () =
  let outcome =
    Campaign.run
      (BFuzz.campaign BFuzz.default
         (Consensus.Counter_race.make ())
         Adapters.counter_race)
      ~iterations:500 ~seed:44
  in
  Alcotest.(check bool) "byzantine adversary breaks counter_race" true
    (outcome.counterexample <> None)

let test_par_determinism () =
  (* The report must be byte-identical at any job count — both on a
     finding campaign and on a clean one. *)
  let render (c : _ Campaign.t) (outcome : _ Campaign.outcome) =
    Format.asprintf "%d:%a" outcome.iterations_run
      (Format.pp_print_option c.pp)
      outcome.counterexample
  in
  let seq = Campaign.run two_phase_campaign ~iterations:500 ~seed:42 in
  List.iter
    (fun jobs ->
      let par =
        Campaign.run ~jobs two_phase_campaign ~iterations:500 ~seed:42
      in
      Alcotest.(check string)
        (Printf.sprintf "finding campaign, jobs=%d" jobs)
        (render two_phase_campaign seq)
        (render two_phase_campaign par))
    [ 2; 3 ];
  let seq_clean = Campaign.run byz_consensus_campaign ~iterations:400 ~seed:42 in
  let par_clean =
    Campaign.run ~jobs:3 byz_consensus_campaign ~iterations:400 ~seed:42
  in
  Alcotest.(check string) "clean campaign, jobs=3"
    (render byz_consensus_campaign seq_clean)
    (render byz_consensus_campaign par_clean)

let () =
  Alcotest.run "byz"
    [
      ( "wrapper",
        [
          Alcotest.test_case "wrap validates strategies" `Quick
            test_wrap_validation;
          Alcotest.test_case "fake decide lets run finish" `Quick
            test_fake_decide_lets_run_finish;
          Alcotest.test_case "selective silence counted + traced" `Quick
            test_selective_silence_counted;
          Alcotest.test_case "equivocation counted + traced" `Quick
            test_equivocation_counted;
          Alcotest.test_case "equivocation is deterministic" `Quick
            test_equivocation_is_deterministic;
          Alcotest.test_case "generic adapter on abstract msgs" `Quick
            test_generic_adapter_replays;
        ] );
      ( "fuzzer",
        [
          Alcotest.test_case "finds two_phase equivocation" `Quick
            test_finds_two_phase_equivocation;
          Alcotest.test_case "shrinks the counterexample" `Quick
            test_shrinking_minimizes;
          Alcotest.test_case "byz_consensus survives its budget" `Quick
            test_byz_consensus_survives;
          Alcotest.test_case "ben_or documented unsafe" `Quick
            test_ben_or_documented_unsafe;
          Alcotest.test_case "counter_race documented unsafe" `Quick
            test_counter_race_documented_unsafe;
          Alcotest.test_case "parallel determinism" `Quick test_par_determinism;
        ] );
    ]
