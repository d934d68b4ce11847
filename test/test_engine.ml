(* Engine semantics tests, using small purpose-built probe algorithms. *)

module A = Amac.Algorithm

(* Probe 1: broadcast once at init, decide input on ack. *)
type once_state = { mutable acked : bool }

let once : (once_state, string) A.t =
  {
    name = "once";
    init = (fun _ctx -> ({ acked = false }, [ A.Broadcast "hello" ]));
    on_receive = (fun _ctx _st _msg -> []);
    on_ack =
      (fun ctx st ->
        if st.acked then []
        else begin
          st.acked <- true;
          [ A.Decide ctx.input ]
        end);
    msg_ids = (fun _ -> 0);
    hooks = None;
  }

(* Probe 2: attempt two broadcasts back-to-back at init — the second must be
   discarded by the MAC layer. *)
let greedy : (unit, string) A.t =
  {
    name = "greedy";
    init = (fun _ctx -> ((), [ A.Broadcast "first"; A.Broadcast "second" ]));
    on_receive = (fun _ctx () _msg -> []);
    on_ack = (fun ctx () -> [ A.Decide ctx.input ]);
    msg_ids = (fun _ -> 0);
    hooks = None;
  }

(* Probe 3: count deliveries; decide the count when it reaches [target]. *)
type counter_state = { mutable seen : int }

let counter ~target : (counter_state, string) A.t =
  {
    name = "counter";
    init = (fun _ctx -> ({ seen = 0 }, [ A.Broadcast "ping" ]));
    on_receive =
      (fun _ctx st _msg ->
        st.seen <- st.seen + 1;
        if st.seen = target then [ A.Decide st.seen ] else []);
    on_ack = (fun _ctx _st -> []);
    msg_ids = (fun _ -> 0);
    hooks = None;
  }

(* Probe 4: forever-rebroadcasting node (for max_time tests). *)
let forever : (unit, string) A.t =
  {
    name = "forever";
    init = (fun _ctx -> ((), [ A.Broadcast "x" ]));
    on_receive = (fun _ctx () _msg -> []);
    on_ack = (fun _ctx () -> [ A.Broadcast "x" ]);
    msg_ids = (fun _ -> 0);
    hooks = None;
  }

let run ?identities ?give_n ?crashes ?max_time ?stop_when_all_decided
    ?record_trace algorithm ~topology ~scheduler ~inputs =
  Amac.Engine.run ?identities ?give_n ?crashes ?max_time
    ?stop_when_all_decided ?record_trace algorithm ~topology ~scheduler
    ~inputs

let clique3 = Amac.Topology.clique 3

let test_ack_after_deliveries () =
  (* Under the synchronous scheduler everyone's single broadcast is acked at
     t=1 and every node hears both neighbors. *)
  let outcome =
    run (counter ~target:2) ~topology:clique3
      ~scheduler:Amac.Scheduler.synchronous ~inputs:[| 0; 0; 0 |]
  in
  Alcotest.(check int) "three broadcasts" 3 outcome.broadcasts;
  Alcotest.(check int) "six deliveries" 6 outcome.deliveries;
  Array.iter
    (function
      | Some (value, time) ->
          Alcotest.(check int) "decided count" 2 value;
          Alcotest.(check int) "at t=1" 1 time
      | None -> Alcotest.fail "all decide")
    outcome.decisions

let test_decision_times () =
  let outcome =
    run once ~topology:clique3 ~scheduler:(Amac.Scheduler.fixed ~delay:4)
      ~inputs:[| 1; 1; 1 |]
  in
  Alcotest.(check (list int)) "acks at fack" [ 4; 4; 4 ]
    (Amac.Engine.decision_times outcome);
  Alcotest.(check (option int)) "latest" (Some 4)
    (Amac.Engine.latest_decision outcome);
  Alcotest.(check bool) "all decided" true (Fixtures.all_decided outcome)

let test_busy_discard () =
  let outcome =
    run greedy ~topology:clique3 ~scheduler:Amac.Scheduler.synchronous
      ~inputs:[| 0; 0; 0 |]
  in
  Alcotest.(check int) "one discard per node" 3 outcome.discarded;
  Alcotest.(check int) "one accepted per node" 3 outcome.broadcasts

let test_input_mismatch () =
  Alcotest.check_raises "bad inputs"
    (Invalid_argument "Engine.run: inputs length mismatches topology size")
    (fun () ->
      ignore
        (run once ~topology:clique3 ~scheduler:Amac.Scheduler.synchronous
           ~inputs:[| 0 |]))

let test_crash_before_broadcast_delivery () =
  (* Node 0 crashes at t=0: its init broadcast (deliveries at t=1) is lost
     entirely; the other two still hear each other. *)
  let outcome =
    run (counter ~target:1) ~topology:clique3
      ~scheduler:Amac.Scheduler.synchronous ~crashes:[ (0, 0) ]
      ~inputs:[| 0; 0; 0 |]
  in
  Alcotest.(check bool) "node 0 crashed" true outcome.crashed.(0);
  Alcotest.(check (option (pair int int))) "node 0 undecided" None
    outcome.decisions.(0);
  Alcotest.(check bool) "others decided" true
    (outcome.decisions.(1) <> None && outcome.decisions.(2) <> None);
  (* 4 deliveries would happen crash-free among nodes 1,2 plus 2 from node
     0; the crash drops node 0's 2 deliveries and the 2 deliveries to it. *)
  Alcotest.(check int) "dropped deliveries" 4 outcome.dropped

let test_crash_mid_broadcast () =
  (* Line 0-1-2; node 1 broadcasts with per-edge delays: to node 0 at t=1,
     to node 2 at t=5. Crashing node 1 at t=3 delivers to 0 but not 2 —
     the non-atomicity of Sec 2. *)
  let line = Amac.Topology.line 3 in
  let sched =
    Fixtures.per_edge ~name:"split" ~fack:5
      ~delay:(fun ~sender:_ ~receiver -> if receiver = 0 then 1 else 5)
  in
  let outcome =
    run (counter ~target:1) ~topology:line ~scheduler:sched
      ~crashes:[ (1, 3) ] ~inputs:[| 0; 0; 0 |]
      ~stop_when_all_decided:false
  in
  (match outcome.decisions.(0) with
  | Some (1, 1) -> ()
  | Some _ | None -> Alcotest.fail "node 0 should hear node 1 at t=1");
  (* Node 2 only ever hears... nothing: node 1's delivery to it was dropped,
     and node 2's own broadcast went to the crashed node 1 only. *)
  Alcotest.(check (option (pair int int))) "node 2 heard nothing" None
    outcome.decisions.(2)

(* Under the synchronous scheduler every delivery of a broadcast lands at
   the same tick, so a crash cannot split one broadcast's audience: crashing
   inside the window (crash events sort before same-tick receives) silences
   the whole broadcast, crashing after it changes nothing. The genuinely
   partial case needs staggered deliveries — see [test_crash_mid_broadcast]
   above (per-edge delays) and the mcheck explorer, which branches over
   every prefix. *)
let test_crash_window_synchronous () =
  let silenced =
    run (counter ~target:1) ~topology:clique3
      ~scheduler:Amac.Scheduler.synchronous ~crashes:[ (0, 1) ]
      ~inputs:[| 0; 0; 0 |]
  in
  (* Node 0's two deliveries (due exactly at t=1) are dropped, as are the
     two deliveries to it. *)
  Alcotest.(check int) "whole broadcast silenced" 4 silenced.dropped;
  Alcotest.(check (option (pair int int))) "node 0 undecided" None
    silenced.decisions.(0);
  let after =
    run (counter ~target:1) ~topology:clique3
      ~scheduler:Amac.Scheduler.synchronous ~crashes:[ (0, 2) ]
      ~inputs:[| 0; 0; 0 |]
  in
  Alcotest.(check int) "window already closed: nothing dropped" 0 after.dropped;
  Alcotest.(check bool) "everyone heard everyone" true
    (Array.for_all (fun d -> d <> None) after.decisions)

let test_crash_window_max_delay () =
  (* max_delay stretches the window to its full F_ack but still delivers
     everything at one tick: a crash at t=3 inside a (0, 5] window silences
     node 1's broadcast entirely, and node 1 (crashed before t=5) also never
     receives its neighbors' broadcasts. *)
  let line = Amac.Topology.line 3 in
  let outcome =
    run (counter ~target:1) ~topology:line
      ~scheduler:(Amac.Scheduler.max_delay ~fack:5)
      ~crashes:[ (1, 3) ] ~inputs:[| 0; 0; 0 |] ~stop_when_all_decided:false
  in
  Alcotest.(check int) "all four deliveries dropped" 4 outcome.dropped;
  Alcotest.(check bool) "nobody hears anything" true
    (Array.for_all (fun d -> d = None) outcome.decisions)

let test_crashed_node_silent () =
  (* After crashing, a node's pending ack must not fire (it takes no steps),
     so `forever` on a crashed node generates no further broadcasts. *)
  let outcome =
    run forever
      ~topology:(Amac.Topology.clique 2)
      ~scheduler:Amac.Scheduler.synchronous ~crashes:[ (0, 0); (1, 5) ]
      ~max_time:50 ~stop_when_all_decided:false ~inputs:[| 0; 0 |]
  in
  (* node 0 crashed at 0 having broadcast once at init; node 1 rebroadcasts
     every tick until its crash at t=5: broadcasts at 0,1,2,3,4 (ack at 5 is
     dropped). Total = 1 + 5. *)
  Alcotest.(check int) "bounded broadcasts" 6 outcome.broadcasts

let test_max_time () =
  let outcome =
    run forever ~topology:clique3 ~scheduler:Amac.Scheduler.synchronous
      ~max_time:20 ~stop_when_all_decided:false ~inputs:[| 0; 0; 0 |]
  in
  Alcotest.(check bool) "hit max time" true outcome.hit_max_time;
  Alcotest.(check bool) "stopped near cap" true (outcome.end_time <= 20)

let test_determinism () =
  let go () =
    let rng = Amac.Rng.create 99 in
    run (counter ~target:2) ~topology:clique3
      ~scheduler:(Amac.Scheduler.random rng ~fack:7)
      ~inputs:[| 0; 1; 0 |]
  in
  let a = go () and b = go () in
  Alcotest.(check int) "same end time" a.end_time b.end_time;
  Alcotest.(check int) "same deliveries" a.deliveries b.deliveries;
  Alcotest.(check bool) "same decisions" true (a.decisions = b.decisions)

let test_scheduler_contract_enforced () =
  let bad_ack =
    Amac.Scheduler.make ~name:"bad-ack" ~fack:3
      (fun ~now ~sender:_ ~neighbors ->
        {
          Amac.Scheduler.receives = List.map (fun v -> (v, now + 1)) neighbors;
          ack_at = now + 10;
        })
  in
  (try
     ignore
       (run once ~topology:clique3 ~scheduler:bad_ack ~inputs:[| 0; 0; 0 |]);
     Alcotest.fail "late ack accepted"
   with Invalid_argument _ -> ());
  let wrong_neighbors =
    Amac.Scheduler.make ~name:"drops" ~fack:3
      (fun ~now ~sender:_ ~neighbors:_ ->
        { Amac.Scheduler.receives = []; ack_at = now + 1 })
  in
  try
    ignore
      (run once ~topology:clique3 ~scheduler:wrong_neighbors
         ~inputs:[| 0; 0; 0 |]);
    Alcotest.fail "dropped neighbors accepted"
  with Invalid_argument _ -> ()

let test_irrevocability_tracking () =
  let fickle : (unit, string) A.t =
    {
      name = "fickle";
      init = (fun _ctx -> ((), [ A.Broadcast "x" ]));
      on_receive = (fun _ctx () _msg -> []);
      on_ack = (fun _ctx () -> [ A.Decide 0; A.Decide 1; A.Decide 0 ]);
      msg_ids = (fun _ -> 0);
      hooks = None;
    }
  in
  let outcome =
    run fickle
      ~topology:(Amac.Topology.clique 2)
      ~scheduler:Amac.Scheduler.synchronous ~inputs:[| 0; 0 |]
  in
  (* First decide recorded; the conflicting re-decide flagged; the repeat of
     the original value ignored. *)
  Alcotest.(check int) "two violations" 2 (List.length outcome.extra_decides);
  Array.iter
    (function
      | Some (0, _) -> ()
      | Some _ | None -> Alcotest.fail "first decision kept")
    outcome.decisions

let test_trace_recording () =
  let outcome =
    run once
      ~topology:(Amac.Topology.clique 2)
      ~scheduler:Amac.Scheduler.synchronous ~record_trace:true
      ~inputs:[| 0; 1 |]
  in
  let entries = outcome.trace in
  Alcotest.(check bool) "nonempty" true (entries <> []);
  let decides =
    List.filter (function Amac.Trace.Decided _ -> true | _ -> false) entries
  in
  Alcotest.(check int) "two decides" 2 (List.length decides);
  (* Times never decrease along the trace. *)
  let times = List.map Amac.Trace.time_of entries in
  Alcotest.(check bool) "monotone times" true
    (List.sort Int.compare times = times)

let test_anonymous_identities () =
  let identities = Amac.Node_id.identity_assignment ~n:3 ~kind:`Anonymous in
  let outcome =
    run once ~topology:clique3 ~scheduler:Amac.Scheduler.synchronous
      ~identities ~inputs:[| 1; 1; 1 |]
  in
  Alcotest.(check bool) "anonymous run decides" true
    (Fixtures.all_decided outcome)

let test_provenance_is_observational () =
  (* Recording the causal DAG must not disturb the run. *)
  let scheduler () = Amac.Scheduler.random (Amac.Rng.create 5) ~fack:4 in
  let plain =
    run (counter ~target:2) ~topology:clique3 ~scheduler:(scheduler ())
      ~inputs:[| 0; 1; 0 |]
  in
  let dag = Obs.Provenance.create () in
  let traced =
    Amac.Engine.run (counter ~target:2) ~topology:clique3
      ~scheduler:(scheduler ()) ~provenance:dag ~inputs:[| 0; 1; 0 |]
  in
  Alcotest.(check bool) "same decisions" true
    (plain.decisions = traced.decisions);
  Alcotest.(check int) "same end time" plain.end_time traced.end_time;
  Alcotest.(check int) "same events" plain.events_processed
    traced.events_processed;
  Alcotest.(check int) "one Deliver vertex per delivery" traced.deliveries
    (List.length
       (List.filter
          (fun (v : Obs.Provenance.vertex) ->
            match v.kind with Deliver _ -> true | _ -> false)
          (List.init (Obs.Provenance.length dag) (Obs.Provenance.get dag))))

let test_drain_after_decisions () =
  (* Stopping at the last decision processes a prefix of the events the
     draining run processes. *)
  let go stop_when_all_decided =
    run once ~topology:clique3 ~scheduler:Amac.Scheduler.synchronous
      ~stop_when_all_decided ~inputs:[| 0; 0; 0 |]
  in
  let stopped = go true and drained = go false in
  Alcotest.(check bool) "both decide" true
    (Fixtures.all_decided stopped && Fixtures.all_decided drained);
  Alcotest.(check bool) "same decisions" true
    (stopped.decisions = drained.decisions);
  Alcotest.(check bool) "stopping sees no more events" true
    (stopped.events_processed <= drained.events_processed);
  Alcotest.(check bool) "draining runs to quiescence" false drained.hit_max_time

(* Property: for random schedulers, every node's delivery count matches the
   topology (everyone hears each neighbor's broadcast exactly once) and the
   full outcome is reproducible from the seed. *)
let prop_delivery_conservation =
  QCheck.Test.make ~name:"deliveries = sum of degrees, reproducibly"
    ~count:150
    QCheck.(triple small_int (int_range 2 12) (int_range 1 8))
    (fun (seed, n, fack) ->
      let rng = Amac.Rng.create (seed + 3) in
      let topology = Amac.Topology.random_connected rng ~n ~extra_edges:2 in
      let go () =
        run once ~topology
          ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack)
          ~inputs:(Array.make n 0)
      in
      let a = go () and b = go () in
      let degree_sum =
        List.fold_left ( + ) 0
          (List.init n (Amac.Topology.degree topology))
      in
      a.deliveries = degree_sum && a.deliveries = b.deliveries
      && a.end_time = b.end_time)

let prop_trace_times_monotone =
  QCheck.Test.make ~name:"recorded traces have monotone times" ~count:80
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, n) ->
      let outcome =
        run (counter ~target:1) ~topology:(Amac.Topology.clique n)
          ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack:5)
          ~record_trace:true ~inputs:(Array.make n 0)
      in
      let times = List.map Amac.Trace.time_of outcome.trace in
      List.sort Int.compare times = times)

let prop_once_decides_at_ack_time =
  (* Whatever the (random) scheduler does, `once` decides exactly when its
     first ack arrives, which is within F_ack. *)
  QCheck.Test.make ~name:"decisions land within F_ack for one broadcast"
    ~count:200
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, fack) ->
      let outcome =
        run once ~topology:clique3
          ~scheduler:(Amac.Scheduler.random (Amac.Rng.create seed) ~fack)
          ~inputs:[| 0; 0; 0 |]
      in
      List.for_all (fun t -> t >= 1 && t <= fack)
        (Amac.Engine.decision_times outcome))

let () =
  Alcotest.run "engine"
    [
      ( "semantics",
        [
          Alcotest.test_case "ack after deliveries" `Quick
            test_ack_after_deliveries;
          Alcotest.test_case "decision times" `Quick test_decision_times;
          Alcotest.test_case "busy discard" `Quick test_busy_discard;
          Alcotest.test_case "input mismatch" `Quick test_input_mismatch;
          Alcotest.test_case "crash before delivery" `Quick
            test_crash_before_broadcast_delivery;
          Alcotest.test_case "crash mid-broadcast" `Quick
            test_crash_mid_broadcast;
          Alcotest.test_case "crash window: synchronous" `Quick
            test_crash_window_synchronous;
          Alcotest.test_case "crash window: max delay" `Quick
            test_crash_window_max_delay;
          Alcotest.test_case "crashed node silent" `Quick
            test_crashed_node_silent;
          Alcotest.test_case "max time" `Quick test_max_time;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "scheduler contract enforced" `Quick
            test_scheduler_contract_enforced;
          Alcotest.test_case "irrevocability tracking" `Quick
            test_irrevocability_tracking;
          Alcotest.test_case "trace recording" `Quick test_trace_recording;
          Alcotest.test_case "anonymous identities" `Quick
            test_anonymous_identities;
          Alcotest.test_case "provenance is observational" `Quick
            test_provenance_is_observational;
          Alcotest.test_case "drain after decisions" `Quick
            test_drain_after_decisions;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_once_decides_at_ack_time;
          QCheck_alcotest.to_alcotest prop_delivery_conservation;
          QCheck_alcotest.to_alcotest prop_trace_times_monotone;
        ] );
    ]
