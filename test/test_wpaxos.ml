(* wPAXOS (Sec 4.2): correctness across topologies and schedulers, the
   O(D * F_ack) shape, the Lemma 4.2 conservation invariant, message-size
   accounting, and the ablation variants. *)

let run ?(algorithm = Consensus.Wpaxos.make ()) ?max_time topology scheduler
    inputs =
  Consensus.Runner.run algorithm ?max_time ~topology ~scheduler ~inputs

let check_ok what result =
  if not (Consensus.Checker.ok result.Consensus.Runner.report) then
    Alcotest.failf "%s: %s" what
      (String.concat "; " result.report.Consensus.Checker.problems)

let test_families_synchronous () =
  let cases =
    [
      ("clique", Amac.Topology.clique 6);
      ("line", Amac.Topology.line 9);
      ("ring", Amac.Topology.ring 8);
      ("star", Amac.Topology.star 10);
      ("grid", Amac.Topology.grid ~width:4 ~height:3);
      ("tree", Amac.Topology.binary_tree 11);
      ("barbell", Fixtures.barbell 4);
      ("star-of-lines", Amac.Topology.star_of_lines ~arms:3 ~arm_len:3);
    ]
  in
  List.iter
    (fun (name, topology) ->
      let n = Amac.Topology.size topology in
      let result =
        run topology Amac.Scheduler.synchronous
          (Consensus.Runner.inputs_alternating ~n)
      in
      check_ok name result)
    cases

let test_single_node () =
  let result =
    run (Amac.Topology.line 1) Amac.Scheduler.synchronous [| 1 |]
  in
  check_ok "single node" result;
  Alcotest.(check (list int)) "own value" [ 1 ] result.report.decided_values

let test_two_nodes () =
  let result =
    run (Amac.Topology.line 2) Amac.Scheduler.synchronous [| 0; 1 |]
  in
  check_ok "two nodes" result

let test_unanimity_validity () =
  (* All-zero inputs must decide 0 (validity leaves no other choice). *)
  let result =
    run
      (Amac.Topology.grid ~width:3 ~height:3)
      (Amac.Scheduler.random (Amac.Rng.create 5) ~fack:4)
      (Consensus.Runner.inputs_all ~n:9 0)
  in
  check_ok "unanimous" result;
  Alcotest.(check (list int)) "decides 0" [ 0 ] result.report.decided_values

let test_requires_n () =
  Alcotest.check_raises "no knowledge of n"
    (Invalid_argument "Wpaxos: requires knowledge of n (see Thm 3.9)")
    (fun () ->
      ignore
        (Consensus.Runner.run (Consensus.Wpaxos.make ()) ~give_n:false
           ~topology:(Amac.Topology.line 3)
           ~scheduler:Amac.Scheduler.synchronous ~inputs:[| 0; 1; 0 |]))

let test_message_ids_constant () =
  (* The max ids per message must be the same small constant on a big
     network as on a small one. *)
  let max_ids topology =
    let n = Amac.Topology.size topology in
    let result =
      run topology
        (Amac.Scheduler.random (Amac.Rng.create 11) ~fack:3)
        (Consensus.Runner.inputs_alternating ~n)
    in
    check_ok "ids run" result;
    result.outcome.max_ids_per_message
  in
  let small = max_ids (Amac.Topology.line 4) in
  let large = max_ids (Amac.Topology.star_of_lines ~arms:6 ~arm_len:6) in
  Alcotest.(check bool) "constant-size messages" true (large <= small + 4);
  Alcotest.(check bool) "genuinely bounded" true (large <= 12)

let test_lemma_4_2_conservation () =
  (* Proposer counts never exceed acceptor-generated affirmatives. *)
  List.iter
    (fun seed ->
      let instrument = Consensus.Wpaxos.Instrument.create () in
      let algorithm = Consensus.Wpaxos.make ~instrument () in
      let rng = Amac.Rng.create seed in
      let topology = Amac.Topology.random_connected rng ~n:14 ~extra_edges:4 in
      let result =
        run ~algorithm topology
          (Amac.Scheduler.random (Amac.Rng.create (seed + 1)) ~fack:5)
          (Consensus.Runner.inputs_random (Amac.Rng.create (seed + 2)) ~n:14)
      in
      check_ok "instrumented run" result;
      Alcotest.(check (list (triple (pair int int) int int)))
        "no conservation violations" []
        (List.map
           (fun (pno, _round, generated, counted) ->
             ((pno.Consensus.Paxos_types.tag, pno.proposer), generated, counted))
           (Consensus.Wpaxos.Instrument.violations instrument)))
    [ 1; 2; 3; 4; 5 ]

let test_time_scales_with_d_not_n () =
  (* Fixed diameter, growing n: wPAXOS time should stay roughly flat.
     star_of_lines with arm_len 4 keeps D = 8 while n grows. *)
  let time arms =
    let topology = Amac.Topology.star_of_lines ~arms ~arm_len:4 in
    let n = Amac.Topology.size topology in
    let result =
      run topology (Amac.Scheduler.fixed ~delay:2)
        (Consensus.Runner.inputs_alternating ~n)
    in
    check_ok "scaling run" result;
    Option.get result.decision_time
  in
  let small = time 3 and large = time 12 in
  (* n quadruples; time may wobble but must not scale linearly with n. *)
  Alcotest.(check bool)
    (Printf.sprintf "time roughly flat in n (%d vs %d)" small large)
    true
    (float_of_int large <= 2.0 *. float_of_int small)

let test_time_linear_in_d () =
  (* Growing diameter at fixed F_ack: time grows, bounded by c * D * F_ack. *)
  List.iter
    (fun d ->
      let topology = Amac.Topology.line (d + 1) in
      let result =
        run topology (Amac.Scheduler.fixed ~delay:2)
          (Consensus.Runner.inputs_alternating ~n:(d + 1))
      in
      check_ok "line run" result;
      let t = Option.get result.decision_time in
      let bound = 16 * d * 2 in
      if t > bound then
        Alcotest.failf "D=%d: time %d exceeds 16*D*F_ack=%d" d t bound)
    [ 4; 8; 16; 32 ]

let test_ablation_variants_correct () =
  (* Disabling leader priority or aggregation must never break safety or
     liveness — only speed. *)
  List.iter
    (fun (name, algorithm) ->
      let topology = Amac.Topology.star_of_lines ~arms:4 ~arm_len:3 in
      let n = Amac.Topology.size topology in
      let result =
        run ~algorithm topology
          (Amac.Scheduler.random (Amac.Rng.create 9) ~fack:4)
          (Consensus.Runner.inputs_alternating ~n)
          ~max_time:500_000
      in
      check_ok name result)
    [
      ("no leader priority", Consensus.Wpaxos.make ~leader_priority:false ());
      ("no aggregation", Consensus.Wpaxos.make ~aggregate:false ());
      ( "neither",
        Consensus.Wpaxos.make ~leader_priority:false ~aggregate:false () );
    ]

let test_adversarial_schedulers () =
  let topology = Amac.Topology.grid ~width:3 ~height:3 in
  let inputs = Consensus.Runner.inputs_halves ~n:9 in
  List.iter
    (fun (name, scheduler) ->
      let result = run topology scheduler inputs ~max_time:500_000 in
      check_ok name result)
    [
      ("max delay", Amac.Scheduler.max_delay ~fack:7);
      ("slow node", Amac.Scheduler.slow_node ~fack:30 ~node:4);
      ( "asymmetric edges",
        Fixtures.per_edge ~name:"asym" ~fack:9
          ~delay:(fun ~sender ~receiver -> 1 + ((sender + (3 * receiver)) mod 9))
      );
      ( "long partition",
        Amac.Scheduler.delayed_cut ~base_fack:2 ~until:60
          ~cut:(fun ~sender ~receiver ->
            (* silence the grid's middle row in one direction for a while *)
            sender >= 3 && sender < 6 && receiver >= 6) );
    ]

let test_shuffled_and_offset_ids () =
  let topology = Amac.Topology.ring 7 in
  let inputs = Consensus.Runner.inputs_alternating ~n:7 in
  List.iter
    (fun kind ->
      let identities = Amac.Node_id.identity_assignment ~n:7 ~kind in
      let result =
        Consensus.Runner.run (Consensus.Wpaxos.make ()) ~identities ~topology
          ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 21) ~fack:3)
          ~inputs
      in
      check_ok "id assignment" result)
    [ `Shuffled (Amac.Rng.create 4); `Offset 1000 ]

let test_safety_under_crashes () =
  (* The paper assumes no crashes for its upper bounds (Thm 3.2 forces
     that for termination) — but SAFETY must not depend on the assumption:
     with nodes crashing, wPAXOS may stall, never split. *)
  List.iter
    (fun (seed, crashes) ->
      let topology = Amac.Topology.grid ~width:3 ~height:3 in
      let result =
        Consensus.Runner.run (Consensus.Wpaxos.make ()) ~topology
          ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack:4)
          ~inputs:(Consensus.Runner.inputs_halves ~n:9)
          ~faults:
            (List.map (fun (node, at) -> Fault.Crash { node; at }) crashes)
          ~max_time:20_000
      in
      if not (Consensus.Checker.safe result.report) then
        Alcotest.failf "wpaxos UNSAFE under crashes (seed %d): %s" seed
          (String.concat "; " result.report.Consensus.Checker.problems))
    [
      (1, [ (8, 3) ]);  (* the initial leader dies early *)
      (2, [ (8, 40) ]);  (* the leader dies mid-protocol *)
      (3, [ (4, 10); (8, 10) ]);  (* center + leader *)
      (4, [ (0, 0); (1, 0); (2, 0); (3, 0) ]);  (* minority dead on arrival *)
    ]

(* Footnote 1: wPAXOS needs only enough knowledge of n to recognise a
   majority. Any quorum in (n/2, n] is safe and live; a quorum of n/2 or
   less breaks quorum intersection, and a long partition splits the
   decision. *)
let split_brain_fixture () =
  (* Two 5-cliques joined by a single edge between their LOWEST-id nodes,
     so the per-side leaders (4 and 9) keep fast acks during the cut. *)
  let n = 10 in
  let edges = ref [ (0, 5) ] in
  for u = 0 to 4 do
    for v = u + 1 to 4 do
      edges := (u, v) :: (u + 5, v + 5) :: !edges
    done
  done;
  let topology = Amac.Topology.of_edges ~n !edges in
  let inputs = Array.init n (fun i -> if i < 5 then 0 else 1) in
  let cut ~sender ~receiver =
    (sender = 0 && receiver = 5) || (sender = 5 && receiver = 0)
  in
  (topology, inputs, Amac.Scheduler.delayed_cut ~base_fack:2 ~until:5000 ~cut)

let test_quorum_overrides_work () =
  let topology, inputs, scheduler = split_brain_fixture () in
  List.iter
    (fun quorum ->
      let result =
        run
          ~algorithm:(Consensus.Wpaxos.make ~quorum ())
          topology scheduler inputs ~max_time:500_000
      in
      check_ok (Printf.sprintf "quorum %d" quorum) result)
    [ 6; 8; 10 ]

let test_small_quorum_splits_brain () =
  let topology, inputs, scheduler = split_brain_fixture () in
  let result =
    run
      ~algorithm:(Consensus.Wpaxos.make ~quorum:4 ())
      topology scheduler inputs ~max_time:500_000
  in
  Alcotest.(check bool) "agreement violated" false
    result.report.Consensus.Checker.agreement;
  Alcotest.(check (list int)) "split decision" [ 0; 1 ]
    result.report.decided_values

let test_quorum_validation () =
  Alcotest.check_raises "quorum >= 1"
    (Invalid_argument "Wpaxos.make: quorum must be >= 1") (fun () ->
      ignore (Consensus.Wpaxos.make ~quorum:0 ()))

(* The heavyweight property: wPAXOS solves consensus on random connected
   topologies under random schedulers, whatever the inputs. *)
let prop_consensus_random =
  QCheck.Test.make ~name:"wpaxos solves consensus (random topo+sched)"
    ~count:120
    QCheck.(
      quad (int_range 1 14) small_int (int_range 1 6)
        (list_of_size (Gen.return 14) bool))
    (fun (n, seed, fack, input_bits) ->
      let rng = Amac.Rng.create (seed * 31) in
      let topology = Amac.Topology.random_connected rng ~n ~extra_edges:(n / 3) in
      let scheduler = Amac.Scheduler.random (Amac.Rng.create seed) ~fack in
      let inputs =
        Array.init n (fun i -> if List.nth input_bits i then 1 else 0)
      in
      let result = run topology scheduler inputs ~max_time:1_000_000 in
      Consensus.Checker.ok result.report)

(* Ablations stay safe too (they are only slower). *)
let prop_ablation_safe =
  QCheck.Test.make ~name:"wpaxos without aggregation stays correct" ~count:40
    QCheck.(triple (int_range 2 10) small_int (int_range 1 4))
    (fun (n, seed, fack) ->
      let rng = Amac.Rng.create (seed * 17) in
      let topology = Amac.Topology.random_connected rng ~n ~extra_edges:2 in
      let scheduler = Amac.Scheduler.random (Amac.Rng.create seed) ~fack in
      let result =
        run
          ~algorithm:(Consensus.Wpaxos.make ~aggregate:false ())
          topology scheduler
          (Consensus.Runner.inputs_alternating ~n)
          ~max_time:1_000_000
      in
      Consensus.Checker.ok result.report)

(* The wire text the trace records (and the goldens pin): the Printf
   formulation it had before it was rewritten without Printf, kept here as
   the oracle. *)
module Wire_oracle = struct
  open Consensus.Paxos_types

  let pp_pno { tag; proposer } = Printf.sprintf "%d.%d" tag proposer

  let pp_round = function Prepare_round -> "prep" | Propose_round -> "prop"

  let pp_proposer_msg = function
    | Prepare pno -> Printf.sprintf "prepare(%s)" (pp_pno pno)
    | Propose { pno; value } ->
        Printf.sprintf "propose(%s,v=%d)" (pp_pno pno) value

  let pp_response r =
    Printf.sprintf "resp{to=%d;tgt=%d;%s/%s;%s;x%d%s%s}" r.dest r.target
      (pp_pno r.pno) (pp_round r.round)
      (if r.positive then "yes" else "no")
      r.count
      (match r.best_prior with
      | None -> ""
      | Some p -> Printf.sprintf ";prior=%s:%d" (pp_pno p.pno) p.value)
      (match r.committed with
      | None -> ""
      | Some c -> Printf.sprintf ";comm=%s" (pp_pno c))

  let pp_component : Consensus.Wpaxos.component -> string = function
    | Leader { id; hb } -> Printf.sprintf "leader(%d,hb=%d)" id hb
    | Change { counter; origin } ->
        Printf.sprintf "change(%d@%d)" counter origin
    | Search { root; hops; sender } ->
        Printf.sprintf "search(root=%d,h=%d,from=%d)" root hops sender
    | Proposal p -> pp_proposer_msg p
    | Response r -> pp_response r
    | Decision v -> Printf.sprintf "decide(%d)" v

  let pp_msg components = String.concat "+" (List.map pp_component components)
end

let gen_component =
  let open QCheck.Gen in
  let open Consensus.Paxos_types in
  let num = oneof [ small_nat; small_signed_int; oneofl [ min_int; max_int ] ] in
  let gen_pno = map2 (fun tag proposer -> { tag; proposer }) num num in
  let response =
    let* dest = num and* target = num and* pno = gen_pno in
    let* round = oneofl [ Prepare_round; Propose_round ] in
    let* positive = bool and* count = num in
    let* best_prior = opt (map2 (fun pno value -> { pno; value }) gen_pno num) in
    let* committed = opt gen_pno in
    return
      { dest; target; pno; round; positive; count; best_prior; committed }
  in
  oneof
    [
      map2 (fun id hb -> Consensus.Wpaxos.Leader { id; hb }) num num;
      map2
        (fun counter origin -> Consensus.Wpaxos.Change { counter; origin })
        num num;
      map3
        (fun root hops sender -> Consensus.Wpaxos.Search { root; hops; sender })
        num num num;
      map (fun p -> Consensus.Wpaxos.Proposal (Prepare p)) gen_pno;
      map2
        (fun pno value -> Consensus.Wpaxos.Proposal (Propose { pno; value }))
        gen_pno num;
      map (fun r -> Consensus.Wpaxos.Response r) response;
      map (fun v -> Consensus.Wpaxos.Decision v) num;
    ]

let prop_wire_text_matches_printf =
  QCheck.Test.make ~name:"pp_msg agrees byte for byte with Printf" ~count:500
    (QCheck.make ~print:Wire_oracle.pp_msg
       QCheck.Gen.(list_size (int_bound 6) gen_component))
    (fun msg -> Consensus.Wpaxos.pp_msg msg = Wire_oracle.pp_msg msg)

(* Every node's state after every handler call, folded in order into one
   digest per variant: pins the services' queues and counters at each step
   of the crash run above, not only the outcome. The expected values were
   computed before the services moved into [Consensus.Services]. *)
let run_digest algorithm =
  let hooks = Option.get algorithm.Amac.Algorithm.hooks in
  let digest = ref Amac.Fingerprint.empty in
  let step st = digest := hooks.fingerprint st !digest in
  let algorithm =
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
  in
  ignore
    (Amac.Engine.run algorithm
       ~topology:(Amac.Topology.grid ~width:6 ~height:6)
       ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 9) ~fack:4)
       ~inputs:(Consensus.Runner.inputs_alternating ~n:36)
       ~crashes:[ (14, 30); (20, 45) ]);
  Amac.Fingerprint.to_int !digest

let test_run_digests () =
  List.iter
    (fun (name, algorithm, expected) ->
      Alcotest.(check int) name expected (run_digest algorithm))
    [
      ("full", Consensus.Wpaxos.make (), 3370112921461015006);
      ( "no retransmit",
        Consensus.Wpaxos.make ~retransmit:false (),
        4005479151431993903 );
      ( "no aggregation",
        Consensus.Wpaxos.make ~aggregate:false (),
        1339787101231096244 );
      ( "no leader priority",
        Consensus.Wpaxos.make ~leader_priority:false (),
        1099213244979427261 );
    ]

let () =
  Alcotest.run "wpaxos"
    [
      ( "unit",
        [
          Alcotest.test_case "topology families" `Quick
            test_families_synchronous;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "two nodes" `Quick test_two_nodes;
          Alcotest.test_case "unanimity validity" `Quick
            test_unanimity_validity;
          Alcotest.test_case "requires n" `Quick test_requires_n;
          Alcotest.test_case "message ids constant" `Quick
            test_message_ids_constant;
          Alcotest.test_case "lemma 4.2 conservation" `Quick
            test_lemma_4_2_conservation;
          Alcotest.test_case "time flat in n (fixed D)" `Slow
            test_time_scales_with_d_not_n;
          Alcotest.test_case "time linear in D" `Slow test_time_linear_in_d;
          Alcotest.test_case "ablations correct" `Quick
            test_ablation_variants_correct;
          Alcotest.test_case "adversarial schedulers" `Quick
            test_adversarial_schedulers;
          Alcotest.test_case "id assignments" `Quick
            test_shuffled_and_offset_ids;
          Alcotest.test_case "crash run digests are pinned" `Quick
            test_run_digests;
        ] );
      ( "crash safety",
        [
          Alcotest.test_case "safe under crashes" `Quick
            test_safety_under_crashes;
        ] );
      ( "quorum knowledge (footnote 1)",
        [
          Alcotest.test_case "valid quorums work" `Quick
            test_quorum_overrides_work;
          Alcotest.test_case "small quorum splits" `Quick
            test_small_quorum_splits_brain;
          Alcotest.test_case "validation" `Quick test_quorum_validation;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_consensus_random;
          QCheck_alcotest.to_alcotest prop_ablation_safe;
          QCheck_alcotest.to_alcotest prop_wire_text_matches_printf;
        ] );
    ]
