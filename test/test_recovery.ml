(* Satellite: recovery semantics at the engine level.

   Amnesiac restart means three things, each pinned here with purpose-built
   probe algorithms: (1) [init] runs exactly once per incarnation — the
   recovered node gets fresh state and its init actions, nothing else; (2)
   deliveries and acks scheduled for a dead incarnation never reach a later
   one, in either direction (to a recovered receiver, from a recovered
   sender); (3) crash-window non-atomicity is preserved across recovery —
   neighbors that missed a mid-broadcast delivery stay missed. Each check
   runs under both the synchronous and the max-delay scheduler where the
   distinction matters. *)

module A = Amac.Algorithm

let me ctx = Amac.Node_id.unique_exn ctx.A.id

(* Probe: count init calls and deliveries per node; talkers (input 1)
   broadcast once from init, everyone tallies what arrives. *)
type probe = { inits : int array; got : int array; acks : int array }

let fresh_probe n =
  { inits = Array.make n 0; got = Array.make n 0; acks = Array.make n 0 }

(* [resend:false] makes talkers broadcast only from their first
   incarnation's init — so a test can pin down what happens to the OLD
   transmission without the re-init's fresh broadcast muddying counts. *)
let probe_algorithm ?(resend = true) p : (unit, string) A.t =
  {
    name = "probe";
    init =
      (fun ctx ->
        let i = me ctx in
        p.inits.(i) <- p.inits.(i) + 1;
        ( (),
          if ctx.A.input = 1 && (resend || p.inits.(i) = 1) then
            [ A.Broadcast "hi" ]
          else [] ));
    on_receive =
      (fun ctx () _msg ->
        let i = me ctx in
        p.got.(i) <- p.got.(i) + 1;
        []);
    on_ack =
      (fun ctx () ->
        let i = me ctx in
        p.acks.(i) <- p.acks.(i) + 1;
        []);
    msg_ids = (fun _ -> 0);
    hooks = None;
  }

let run ?resend ?(crashes = []) ?(recoveries = []) probe ~scheduler ~inputs =
  let n = Array.length inputs in
  Amac.Engine.run
    (probe_algorithm ?resend probe)
    ~topology:(Amac.Topology.clique n)
    ~scheduler ~inputs ~crashes ~recoveries ~max_time:1_000
    ~stop_when_all_decided:false

let schedulers =
  [
    ("synchronous", Amac.Scheduler.synchronous);
    ("max-delay", Amac.Scheduler.max_delay ~fack:6);
  ]

let test_init_once_per_incarnation () =
  List.iter
    (fun (name, scheduler) ->
      let p = fresh_probe 3 in
      let outcome =
        run p ~scheduler ~inputs:[| 0; 0; 0 |]
          ~crashes:[ (0, 2) ]
          ~recoveries:[ (0, 5) ]
      in
      Alcotest.(check (array int))
        (name ^ ": one init per incarnation")
        [| 2; 1; 1 |] p.inits;
      Alcotest.(check (array int))
        (name ^ ": incarnation counters")
        [| 1; 0; 0 |]
        outcome.Amac.Engine.incarnations)
    schedulers;
  (* Two full crash/recover cycles: three incarnations, three inits. *)
  let p = fresh_probe 2 in
  let outcome =
    run p ~scheduler:Amac.Scheduler.synchronous ~inputs:[| 0; 0 |]
      ~crashes:[ (1, 1); (1, 5) ]
      ~recoveries:[ (1, 3); (1, 8) ]
  in
  Alcotest.(check (array int)) "three inits" [| 1; 3 |] p.inits;
  Alcotest.(check (array int)) "two recoveries" [| 0; 2 |]
    outcome.Amac.Engine.incarnations

(* A delivery scheduled for incarnation 0 of the receiver must not land on
   incarnation 1, even though the node is up again when it arrives. *)
let test_no_stale_delivery_to_recovered () =
  let p = fresh_probe 2 in
  (* Node 1 broadcasts at t=0; max-delay delivers at t=6. Node 0 crashes at
     t=1 and is back at t=3 — up well before the delivery, but it belongs
     to a dead incarnation. *)
  let outcome =
    run p
      ~scheduler:(Amac.Scheduler.max_delay ~fack:6)
      ~inputs:[| 0; 1 |]
      ~crashes:[ (0, 1) ]
      ~recoveries:[ (0, 3) ]
  in
  Alcotest.(check (array int)) "nothing delivered" [| 0; 0 |] p.got;
  Alcotest.(check int) "delivery dropped" 1 outcome.Amac.Engine.dropped;
  (* Control: without the crash the same schedule delivers. *)
  let p' = fresh_probe 2 in
  let _ =
    run p' ~scheduler:(Amac.Scheduler.max_delay ~fack:6) ~inputs:[| 0; 1 |]
  in
  Alcotest.(check (array int)) "control delivers" [| 1; 0 |] p'.got

(* A broadcast by incarnation 0 of the sender must not be delivered (nor
   acked) once the sender has crashed and restarted — the restart does not
   resurrect the old transmission. *)
let test_no_stale_delivery_from_recovered () =
  let p = fresh_probe 2 in
  (* Node 1 broadcasts at t=0 (delivery t=6); crashes at t=1, back at t=2.
     Its old transmission must vanish: no delivery at t=6, no ack.
     [resend:false] keeps the re-init silent so the zeros are meaningful. *)
  let outcome =
    run p ~resend:false
      ~scheduler:(Amac.Scheduler.max_delay ~fack:6)
      ~inputs:[| 0; 1 |]
      ~crashes:[ (1, 1) ]
      ~recoveries:[ (1, 2) ]
  in
  Alcotest.(check (array int)) "no delivery from old incarnation" [| 0; 0 |]
    p.got;
  Alcotest.(check (array int)) "no ack for old incarnation" [| 0; 0 |] p.acks;
  Alcotest.(check int) "transmission dropped" 1 outcome.Amac.Engine.dropped

(* Crash mid-broadcast is non-atomic (Sec 2): with staggered per-edge
   delays, the fast neighbor hears the doomed broadcast, the slow one never
   does — and a recovery in between must not change that. *)
let test_non_atomicity_across_recovery () =
  let staggered =
    Fixtures.per_edge ~name:"staggered" ~fack:6 ~delay:(fun ~sender:_ ~receiver ->
        if receiver = 1 then 1 else 5)
  in
  let p = fresh_probe 3 in
  let _ =
    run p ~resend:false ~scheduler:staggered ~inputs:[| 1; 0; 0 |]
      ~crashes:[ (0, 3) ]
      ~recoveries:[ (0, 4) ]
  in
  Alcotest.(check int) "fast neighbor heard it" 1 p.got.(1);
  Alcotest.(check int) "slow neighbor never does" 0 p.got.(2);
  Alcotest.(check int) "no ack for the doomed broadcast" 0 p.acks.(0);
  (* Same shape under the synchronous scheduler: everything lands at t=1,
     a crash at t=1 is after delivery — atomic-looking because the window
     is a single tick, which is exactly the Sec 3.2 lock-step regime. *)
  let p' = fresh_probe 3 in
  let _ =
    run p' ~resend:false ~scheduler:Amac.Scheduler.synchronous
      ~inputs:[| 1; 0; 0 |]
      ~crashes:[ (0, 2) ]
      ~recoveries:[ (0, 4) ]
  in
  Alcotest.(check (array int)) "lock-step: both heard it" [| 0; 1; 1 |] p'.got

(* The recovered node is a first-class citizen: its re-run init may
   broadcast, and that new transmission delivers and acks normally. *)
let test_recovered_node_participates () =
  List.iter
    (fun (name, scheduler) ->
      let p = fresh_probe 3 in
      (* Node 0 is a talker; it crashes before any delivery of its first
         broadcast and recovers. The re-init broadcasts afresh: both
         neighbors hear exactly the second transmission, and node 0 gets
         exactly one ack (for it). *)
      let crashes, recoveries = ([ (0, 0) ], [ (0, 20) ]) in
      let _ = run p ~scheduler ~inputs:[| 1; 0; 0 |] ~crashes ~recoveries in
      Alcotest.(check int) (name ^ ": neighbor 1 hears the re-send") 1
        p.got.(1);
      Alcotest.(check int) (name ^ ": neighbor 2 hears the re-send") 1
        p.got.(2);
      Alcotest.(check int) (name ^ ": one ack, for the new incarnation") 1
        p.acks.(0))
    schedulers

let () =
  Alcotest.run "recovery"
    [
      ( "semantics",
        [
          Alcotest.test_case "init once per incarnation" `Quick
            test_init_once_per_incarnation;
          Alcotest.test_case "no stale delivery to recovered" `Quick
            test_no_stale_delivery_to_recovered;
          Alcotest.test_case "no stale delivery from recovered" `Quick
            test_no_stale_delivery_from_recovered;
          Alcotest.test_case "non-atomicity across recovery" `Quick
            test_non_atomicity_across_recovery;
          Alcotest.test_case "recovered node participates" `Quick
            test_recovered_node_participates;
        ] );
    ]
