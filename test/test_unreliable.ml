(* The dual-graph (reliable + unreliable links) variant of the model:
   engine semantics, plus algorithm behaviour — the paper's future-work
   direction 1 (Sec 5). *)

module A = Amac.Algorithm

(* Probe: counts deliveries, never decides; broadcast once at init. *)
type probe_state = { mutable heard : int list }

let probe : (probe_state, int) A.t =
  {
    name = "probe";
    init =
      (fun ctx ->
        ( { heard = [] },
          [ A.Broadcast (Amac.Node_id.unique_exn ctx.id) ] ));
    on_receive =
      (fun _ctx st sender ->
        st.heard <- sender :: st.heard;
        []);
    on_ack = (fun ctx _st -> [ A.Decide ctx.input ]);
    msg_ids = (fun _ -> 1);
    hooks = None;
  }

let line4 = Amac.Topology.line 4

(* Unreliable chord between the two line endpoints. *)
let chord = Amac.Topology.of_edges ~n:4 [ (0, 3) ]

let always_deliver =
  {
    Amac.Scheduler.synchronous with
    unreliable_plan =
      Some
        (fun ~now ~sender:_ ~candidates ~ack_at:_ ->
          List.map (fun c -> (c, now + 1)) candidates);
  }

let test_unreliable_delivery_happens () =
  let outcome =
    Amac.Engine.run probe ~topology:line4 ~scheduler:always_deliver
      ~unreliable:chord ~inputs:[| 0; 0; 0; 0 |]
  in
  (* 3 reliable edges x 2 directions + 2 chord deliveries. *)
  Alcotest.(check int) "deliveries" 8 outcome.deliveries;
  Alcotest.(check int) "unreliable count" 2 outcome.unreliable_deliveries

let test_no_plan_no_delivery () =
  let outcome =
    Amac.Engine.run probe ~topology:line4
      ~scheduler:Amac.Scheduler.synchronous ~unreliable:chord
      ~inputs:[| 0; 0; 0; 0 |]
  in
  Alcotest.(check int) "reliable only" 6 outcome.deliveries;
  Alcotest.(check int) "no unreliable" 0 outcome.unreliable_deliveries

let test_no_graph_no_delivery () =
  let outcome =
    Amac.Engine.run probe ~topology:line4 ~scheduler:always_deliver
      ~inputs:[| 0; 0; 0; 0 |]
  in
  Alcotest.(check int) "no unreliable" 0 outcome.unreliable_deliveries

let test_overlap_rejected () =
  let overlapping = Amac.Topology.of_edges ~n:4 [ (0, 1) ] in
  Alcotest.check_raises "edge in both graphs"
    (Invalid_argument "Engine.run: edge (0,1) is both reliable and unreliable")
    (fun () ->
      ignore
        (Amac.Engine.run probe ~topology:line4 ~scheduler:always_deliver
           ~unreliable:overlapping ~inputs:[| 0; 0; 0; 0 |]))

let test_size_mismatch_rejected () =
  let wrong = Amac.Topology.of_edges ~n:5 [ (0, 4) ] in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Engine.run: unreliable graph size mismatches topology")
    (fun () ->
      ignore
        (Amac.Engine.run probe ~topology:line4 ~scheduler:always_deliver
           ~unreliable:wrong ~inputs:[| 0; 0; 0; 0 |]))

let test_non_candidate_rejected () =
  let bad =
    {
      Amac.Scheduler.synchronous with
      unreliable_plan =
        Some (fun ~now ~sender:_ ~candidates:_ ~ack_at:_ -> [ (2, now + 1) ]);
    }
  in
  Alcotest.check_raises "delivery to non-candidate"
    (Invalid_argument "Engine.run: unreliable delivery to a non-candidate")
    (fun () ->
      ignore
        (Amac.Engine.run probe ~topology:line4 ~scheduler:bad
           ~unreliable:chord ~inputs:[| 0; 0; 0; 0 |]))

let test_ack_never_waits_for_unreliable () =
  (* Unreliable deliveries land within the window; acks are unchanged. *)
  let outcome =
    Amac.Engine.run probe ~topology:line4 ~scheduler:always_deliver
      ~unreliable:chord ~inputs:[| 0; 0; 0; 0 |]
  in
  List.iter
    (fun t -> Alcotest.(check int) "ack at t=1 as without chords" 1 t)
    (Amac.Engine.decision_times outcome)

let test_bernoulli_extremes_through_engine () =
  (* p=1 behaves like always_deliver (and is counted as such); p=0 like no
     plan at all. *)
  let with_p p =
    Amac.Engine.run probe ~topology:line4
      ~scheduler:
        (Amac.Scheduler.bernoulli_unreliable (Amac.Rng.create 4) ~p
           Amac.Scheduler.synchronous)
      ~unreliable:chord ~inputs:[| 0; 0; 0; 0 |]
  in
  let certain = with_p 1.0 in
  Alcotest.(check int) "p=1: both chord directions counted" 2
    certain.unreliable_deliveries;
  Alcotest.(check int) "p=1: total includes chords" 8 certain.deliveries;
  let never = with_p 0.0 in
  Alcotest.(check int) "p=0: nothing on the chord" 0
    never.unreliable_deliveries;
  Alcotest.(check int) "p=0: reliable only" 6 never.deliveries

let test_bernoulli_validation () =
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Scheduler.bernoulli_unreliable: p must be in [0, 1]")
    (fun () ->
      ignore
        (Amac.Scheduler.bernoulli_unreliable (Amac.Rng.create 1) ~p:1.5
           Amac.Scheduler.synchronous))

(* Algorithm behaviour on flaky links. *)

let chords_for n rng ~count =
  let topology = Amac.Topology.line n in
  let edges = ref [] in
  let attempts = ref 0 in
  while List.length !edges < count && !attempts < 100 do
    incr attempts;
    let u = Amac.Rng.int rng n and v = Amac.Rng.int rng n in
    let key = (min u v, max u v) in
    if
      u <> v
      && (not (Amac.Topology.has_edge topology u v))
      && not (List.mem key !edges)
    then edges := key :: !edges
  done;
  Amac.Topology.of_edges ~n !edges

let test_flood_gather_stays_correct () =
  (* Extra (unreliable) deliveries are pure information gain for
     flood-gather: correct on every seed, and never slower than without. *)
  List.iter
    (fun seed ->
      let n = 12 in
      let unreliable = chords_for n (Amac.Rng.create (seed * 3)) ~count:4 in
      let base = Amac.Scheduler.random (Amac.Rng.create seed) ~fack:4 in
      let scheduler =
        Amac.Scheduler.bernoulli_unreliable (Amac.Rng.create (seed + 50))
          ~p:0.5 base
      in
      let result =
        Consensus.Runner.run
          (Consensus.Flood_gather.make ())
          ~topology:(Amac.Topology.line n) ~scheduler ~unreliable
          ~inputs:(Consensus.Runner.inputs_alternating ~n)
          ~max_time:500_000
      in
      if not (Consensus.Checker.ok result.report) then
        Alcotest.failf "flood-gather flaky seed %d: %s" seed
          (String.concat "; " result.report.problems))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_wpaxos_safety_on_flaky_links () =
  (* The paper leaves the multihop upper bound with unreliable links open
     (Sec 5); what must survive unconditionally is SAFETY. *)
  let live = ref 0 in
  List.iter
    (fun seed ->
      let n = 12 in
      let unreliable = chords_for n (Amac.Rng.create (seed * 7)) ~count:4 in
      let base = Amac.Scheduler.random (Amac.Rng.create seed) ~fack:4 in
      let scheduler =
        Amac.Scheduler.bernoulli_unreliable (Amac.Rng.create (seed + 90))
          ~p:0.3 base
      in
      let result =
        Consensus.Runner.run (Consensus.Wpaxos.make ())
          ~topology:(Amac.Topology.line n) ~scheduler ~unreliable
          ~inputs:(Consensus.Runner.inputs_alternating ~n)
          ~max_time:100_000
      in
      if not (Consensus.Checker.safe result.report) then
        Alcotest.failf "wpaxos flaky seed %d UNSAFE: %s" seed
          (String.concat "; " result.report.problems);
      if Consensus.Checker.ok result.report then incr live)
    (List.init 12 (fun i -> i + 1));
  (* Liveness is not guaranteed by the paper here, but it should not be
     hopeless either. *)
  Alcotest.(check bool)
    (Printf.sprintf "some runs fully terminate (%d/12)" !live)
    true (!live >= 6)

let prop_two_phase_ignores_clique_chords =
  (* In a single hop network there are no extra nodes to hear from; an
     unreliable graph over the same clique must not exist (edges overlap) —
     instead check two-phase with an empty unreliable graph behaves
     identically. *)
  QCheck.Test.make ~name:"empty unreliable graph is a no-op" ~count:50
    QCheck.(pair (int_range 2 8) small_int)
    (fun (n, seed) ->
      let empty = Amac.Topology.of_edges ~n [] in
      let run unreliable =
        Consensus.Runner.run Consensus.Two_phase.algorithm
          ~topology:(Amac.Topology.clique n)
          ~scheduler:
            (Amac.Scheduler.bernoulli_unreliable
               (Amac.Rng.create (seed + 1))
               ~p:0.7
               (Amac.Scheduler.random (Amac.Rng.create seed) ~fack:5))
          ~inputs:(Consensus.Runner.inputs_alternating ~n)
          ?unreliable
      in
      let with_empty = run (Some empty) and without = run None in
      with_empty.outcome.decisions = without.outcome.decisions)

let () =
  Alcotest.run "unreliable"
    [
      ( "engine semantics",
        [
          Alcotest.test_case "deliveries happen" `Quick
            test_unreliable_delivery_happens;
          Alcotest.test_case "no plan, no delivery" `Quick
            test_no_plan_no_delivery;
          Alcotest.test_case "no graph, no delivery" `Quick
            test_no_graph_no_delivery;
          Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
          Alcotest.test_case "size mismatch rejected" `Quick
            test_size_mismatch_rejected;
          Alcotest.test_case "non-candidate rejected" `Quick
            test_non_candidate_rejected;
          Alcotest.test_case "acks unchanged" `Quick
            test_ack_never_waits_for_unreliable;
          Alcotest.test_case "bernoulli p=0 / p=1" `Quick
            test_bernoulli_extremes_through_engine;
          Alcotest.test_case "bernoulli validation" `Quick
            test_bernoulli_validation;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "flood-gather stays correct" `Quick
            test_flood_gather_stays_correct;
          Alcotest.test_case "wpaxos safety" `Quick
            test_wpaxos_safety_on_flaky_links;
          QCheck_alcotest.to_alcotest prop_two_phase_ignores_clique_chords;
        ] );
    ]
