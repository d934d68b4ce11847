(* The Thm 3.10 Omega(D * F_ack) bound, measured via causal influence
   folded out of the provenance DAG. *)

module P = Obs.Provenance

let first_influence = Lowerbound.Partition.first_influence

(* Every node rebroadcasts on each ack, forever. *)
let forever : (unit, string) Amac.Algorithm.t =
  {
    name = "forever";
    init = (fun _ctx -> ((), [ Amac.Algorithm.Broadcast "x" ]));
    on_receive = (fun _ctx () _msg -> []);
    on_ack = (fun _ctx () -> [ Amac.Algorithm.Broadcast "x" ]);
    msg_ids = (fun _ -> 0);
    hooks = None;
  }

let test_influence_one_hop_per_fack () =
  (* Line 0-1-2-3 under max_delay(5): influence crosses one hop per 5
     ticks. *)
  let provenance = P.create () in
  ignore
    (Amac.Engine.run forever
       ~topology:(Amac.Topology.line 4)
       ~scheduler:(Amac.Scheduler.max_delay ~fack:5)
       ~provenance ~max_time:40 ~stop_when_all_decided:false
       ~inputs:[| 0; 0; 0; 0 |]);
  let first = first_influence provenance in
  Alcotest.(check (option int)) "self at 0" (Some 0) first.(2).(2);
  Alcotest.(check (option int)) "one hop" (Some 5) first.(1).(0);
  Alcotest.(check (option int)) "three hops" (Some 15) first.(3).(0);
  let full =
    Array.fold_left
      (fun acc t ->
        match (acc, t) with
        | Some a, Some t -> Some (max a t)
        | None, _ | _, None -> None)
      (Some 0) first.(3)
  in
  Alcotest.(check (option int)) "full influence at 3 hops" (Some 15) full

(* Hand-built DAGs: [boot] roots a node at time 0, [relay] records one
   Broadcast by [src] (caused by [cause]) and its Deliver at [dst], both at
   [time], and returns the Deliver vertex — [dst]'s new latest informational
   event. *)
let boots dag n =
  Array.init n (fun node ->
      P.record dag ~kind:(P.Boot { incarnation = 0 }) ~node ~time:0 ~cause:(-1))

let broadcast dag ~src ~cause ~time =
  P.record dag ~kind:P.Broadcast ~node:src ~time ~cause

let deliver dag ~dst ~src ~broadcast ~time =
  P.record dag ~kind:(P.Deliver { sender = src }) ~node:dst ~time
    ~cause:broadcast

let relay dag ~src ~dst ~cause ~time =
  deliver dag ~dst ~src ~broadcast:(broadcast dag ~src ~cause ~time) ~time

let origins row =
  List.filter_map
    (fun (origin, t) -> Option.map (fun _ -> origin) t)
    (List.mapi (fun origin t -> (origin, t)) (Array.to_list row))

let test_fold_initial_self_influence () =
  let dag = P.create () in
  ignore (boots dag 4);
  let first = first_influence dag in
  for i = 0 to 3 do
    Alcotest.(check (option int))
      (Printf.sprintf "node %d self at 0" i)
      (Some 0) first.(i).(i)
  done;
  Alcotest.(check (option int)) "no cross influence yet" None first.(0).(1)

let test_fold_first_time_kept () =
  let dag = P.create () in
  let b = boots dag 3 in
  ignore (relay dag ~src:1 ~dst:0 ~cause:b.(1) ~time:7);
  (* A later re-delivery of 1's news must not overwrite the first time. *)
  ignore (relay dag ~src:1 ~dst:0 ~cause:b.(1) ~time:20);
  Alcotest.(check (option int)) "first time kept" (Some 7)
    (first_influence dag).(0).(1)

let test_fold_transitivity () =
  let dag = P.create () in
  let b = boots dag 3 in
  (* 2's influence reaches 1 at t=3; then 1's (now including 2) reaches 0 at
     t=9: node 0 is influenced by 2 at 9, not 3. *)
  let d1 = relay dag ~src:2 ~dst:1 ~cause:b.(2) ~time:3 in
  ignore (relay dag ~src:1 ~dst:0 ~cause:d1 ~time:9);
  let first = first_influence dag in
  Alcotest.(check (option int)) "2 -> 0 via 1" (Some 9) first.(0).(2);
  Alcotest.(check (option int)) "1 -> 0 direct" (Some 9) first.(0).(1);
  Alcotest.(check (option int)) "2 -> 1" (Some 3) first.(1).(2)

let test_fold_broadcast_isolation () =
  let dag = P.create () in
  let b = boots dag 3 in
  (* 1 broadcasts at t=1, hears from 2 at t=2, and only then is its t=1
     message delivered to 0: news 1 heard after broadcasting must not ride
     the message already on the wire. *)
  let on_wire = broadcast dag ~src:1 ~cause:b.(1) ~time:1 in
  ignore (relay dag ~src:2 ~dst:1 ~cause:b.(2) ~time:2);
  ignore (deliver dag ~dst:0 ~src:1 ~broadcast:on_wire ~time:5);
  let first = first_influence dag in
  Alcotest.(check (option int)) "1 -> 0" (Some 5) first.(0).(1);
  Alcotest.(check (option int)) "no leak of 2 through the old message" None
    first.(0).(2)

let test_fold_earliest_full_influence () =
  let dag = P.create () in
  let b = boots dag 3 in
  let full () =
    Array.fold_left
      (fun acc t ->
        match (acc, t) with
        | Some a, Some t -> Some (max a t)
        | None, _ | _, None -> None)
      (Some 0) (first_influence dag).(0)
  in
  Alcotest.(check (option int)) "not full yet" None (full ());
  ignore (relay dag ~src:1 ~dst:0 ~cause:b.(1) ~time:4);
  Alcotest.(check (option int)) "still not full" None (full ());
  ignore (relay dag ~src:2 ~dst:0 ~cause:b.(2) ~time:11);
  Alcotest.(check (option int)) "full at the last arrival" (Some 11) (full ())

let test_fold_influence_set () =
  let dag = P.create () in
  let b = boots dag 4 in
  ignore (relay dag ~src:3 ~dst:0 ~cause:b.(3) ~time:1);
  let first = first_influence dag in
  Alcotest.(check (list int)) "influence set of 0" [ 0; 3 ] (origins first.(0));
  Alcotest.(check (list int)) "sender unaffected" [ 3 ] (origins first.(3))

let test_fold_recovery_boot_keeps_first () =
  let dag = P.create () in
  let b = boots dag 2 in
  ignore (relay dag ~src:1 ~dst:0 ~cause:b.(1) ~time:3);
  (* A recovery boot re-roots node 0 but neither resets its own self time
     nor forgets what it had already heard. *)
  let reboot =
    P.record dag ~kind:(P.Boot { incarnation = 1 }) ~node:0 ~time:8 ~cause:(-1)
  in
  ignore (relay dag ~src:0 ~dst:1 ~cause:reboot ~time:10);
  let first = first_influence dag in
  Alcotest.(check (option int)) "self time from the first boot" (Some 0)
    first.(0).(0);
  Alcotest.(check (option int)) "earlier news kept" (Some 3) first.(0).(1);
  Alcotest.(check (option int)) "0 -> 1 after recovery" (Some 10)
    first.(1).(0)

let test_fold_ignores_non_informational () =
  let dag = P.create () in
  let b = boots dag 2 in
  let bc = broadcast dag ~src:0 ~cause:b.(0) ~time:1 in
  ignore (P.record dag ~kind:P.Ack ~node:0 ~time:2 ~cause:bc);
  ignore
    (P.record dag ~kind:(P.Decide { value = 1 }) ~node:1 ~time:2 ~cause:b.(1));
  ignore
    (P.record dag ~kind:(P.Inject { payload = 5 }) ~node:1 ~time:3
       ~cause:(-1));
  (* A broadcast that is acked but never delivered influences nobody. *)
  Alcotest.(check (option int)) "undelivered broadcast" None
    (first_influence dag).(1).(0)

let test_fold_empty_dag () =
  Alcotest.(check int) "no nodes" 0
    (Array.length (first_influence (P.create ())))

(* Property: on a line under max_delay, the engine's own DAG folds to
   influence crossing exactly one hop per F_ack, in both directions. *)
let prop_fold_line_hop_distance =
  QCheck.Test.make ~name:"line under max_delay: influence = hops * F_ack"
    ~count:25
    QCheck.(pair (int_range 1 7) (int_range 1 5))
    (fun (n, fack) ->
      let provenance = P.create () in
      ignore
        (Amac.Engine.run forever ~topology:(Amac.Topology.line n)
           ~scheduler:(Amac.Scheduler.max_delay ~fack)
           ~provenance ~max_time:(n * fack) ~stop_when_all_decided:false
           ~inputs:(Array.make n 0));
      let first = first_influence provenance in
      Array.length first = n
      && Array.for_all Fun.id
           (Array.mapi
              (fun node row ->
                Array.for_all Fun.id
                  (Array.mapi
                     (fun origin t -> t = Some (abs (node - origin) * fack))
                     row))
              first))

(* Property: a random time-ordered (src, dst, time) delivery script,
   recorded as Boot/Broadcast/Deliver vertices, folds to the first-influence
   times of a naive replay over explicit origin lists. *)
let prop_fold_matches_reference =
  QCheck.Test.make ~name:"provenance fold matches a replay reference"
    ~count:150
    QCheck.(
      list_of_size
        Gen.(1 -- 30)
        (triple (int_range 0 5) (int_range 0 5) (int_range 1 50)))
    (fun script ->
      let n = 6 in
      let script =
        List.sort (fun (_, _, a) (_, _, b) -> Int.compare a b) script
      in
      let dag = P.create () in
      (* Each node's latest informational vertex: what its broadcasts are
         caused by. *)
      let last_info =
        Array.init n (fun node ->
            P.record dag ~kind:(P.Boot { incarnation = 0 }) ~node ~time:0
              ~cause:(-1))
      in
      let reference = Array.init n (fun i -> [ i ]) in
      let expected = Array.make_matrix n n None in
      for i = 0 to n - 1 do
        expected.(i).(i) <- Some 0
      done;
      List.iter
        (fun (src, dst, time) ->
          let b =
            P.record dag ~kind:P.Broadcast ~node:src ~time
              ~cause:last_info.(src)
          in
          last_info.(dst) <-
            P.record dag ~kind:(P.Deliver { sender = src }) ~node:dst ~time
              ~cause:b;
          List.iter
            (fun origin ->
              if not (List.mem origin reference.(dst)) then begin
                reference.(dst) <- origin :: reference.(dst);
                expected.(dst).(origin) <- Some time
              end)
            reference.(src))
        script;
      first_influence dag = expected)

let test_cross_influence_exact () =
  (* Under max-delay, influence crosses exactly one hop per F_ack. The
     nearest opposite-half node is ceil(D/2) hops from an endpoint, so the
     earliest cross-influence is exactly ceil(D/2) * F_ack — which meets the
     paper's floor(D/2) * F_ack bound with equality at even D and exceeds it
     by one hop at odd D. *)
  List.iter
    (fun (diameter, fack) ->
      let a =
        Lowerbound.Partition.analyze (Consensus.Wpaxos.make ()) ~diameter
          ~fack
      in
      Alcotest.(check int)
        (Printf.sprintf "bound D=%d fack=%d" diameter fack)
        (diameter / 2 * fack)
        a.lower_bound;
      Alcotest.(check int) "cross influence = ceil(D/2)*F_ack"
        ((diameter + 1) / 2 * fack)
        a.endpoint_cross_influence;
      Alcotest.(check bool) "cross influence >= bound" true
        (a.endpoint_cross_influence >= a.lower_bound))
    [ (4, 3); (8, 2); (8, 5); (13, 4) ]

let test_analysis_fields_consistent () =
  let diameter = 6 and fack = 4 in
  let a =
    Lowerbound.Partition.analyze (Consensus.Wpaxos.make ()) ~diameter ~fack
  in
  Alcotest.(check int) "diameter echoed" diameter a.diameter;
  Alcotest.(check int) "fack echoed" fack a.fack;
  Alcotest.(check bool) "first <= last decision" true
    (a.first_decision <= a.last_decision);
  Alcotest.(check (float 1e-9)) "ratio = last / bound"
    (float_of_int a.last_decision /. float_of_int a.lower_bound)
    a.ratio

let test_analyze_fails_when_undecided () =
  match
    Lowerbound.Partition.analyze (Consensus.Wpaxos.make ()) ~max_time:1
      ~diameter:6 ~fack:4
  with
  | _ -> Alcotest.fail "expected Failure: nobody decides by t=1"
  | exception Failure msg ->
      Alcotest.(check bool) "message names the analysis" true
        (String.starts_with ~prefix:"Partition.analyze" msg)

let test_decisions_respect_bound () =
  List.iter
    (fun (diameter, fack) ->
      let a =
        Lowerbound.Partition.analyze (Consensus.Wpaxos.make ()) ~diameter
          ~fack
      in
      Alcotest.(check bool) "consensus ok" true a.consensus_ok;
      if a.first_decision < a.lower_bound then
        Alcotest.failf "decision at %d before bound %d" a.first_decision
          a.lower_bound)
    [ (4, 3); (8, 4); (16, 2) ]

let test_two_phase_also_respects_bound () =
  (* Even the (single-hop) two-phase algorithm on a diameter-1 "line" (a
     2-clique) respects the trivial bound. More interestingly, flood-gather
     on lines also sits above the bound. *)
  let a =
    Lowerbound.Partition.analyze
      (Consensus.Flood_gather.make ())
      ~diameter:10 ~fack:3
  in
  Alcotest.(check bool) "consensus ok" true a.consensus_ok;
  Alcotest.(check bool) "bound respected" true
    (a.first_decision >= a.lower_bound)

let test_ratio_stays_bounded () =
  (* Optimality in the Thm 4.6 sense: decision time / (D * F_ack/2) stays a
     small constant as D grows — no super-linear blowup. *)
  let ratios =
    List.map
      (fun diameter ->
        let a =
          Lowerbound.Partition.analyze (Consensus.Wpaxos.make ()) ~diameter
            ~fack:3
        in
        a.ratio)
      [ 6; 12; 24 ]
  in
  List.iter
    (fun r ->
      if r > 40.0 then Alcotest.failf "ratio %.1f suggests non-linear time" r)
    ratios

let prop_bound_holds_on_random_fack =
  QCheck.Test.make ~name:"first decision >= floor(D/2)*F_ack (max-delay)"
    ~count:20
    QCheck.(pair (int_range 2 10) (int_range 1 6))
    (fun (diameter, fack) ->
      let a =
        Lowerbound.Partition.analyze (Consensus.Wpaxos.make ()) ~diameter
          ~fack
      in
      a.consensus_ok && a.first_decision >= a.lower_bound)

let () =
  Alcotest.run "partition"
    [
      ( "thm 3.10",
        [
          Alcotest.test_case "influence: one hop per F_ack" `Quick
            test_influence_one_hop_per_fack;
          QCheck_alcotest.to_alcotest prop_fold_matches_reference;
          Alcotest.test_case "analysis fields consistent" `Quick
            test_analysis_fields_consistent;
          Alcotest.test_case "analyze fails when undecided" `Quick
            test_analyze_fails_when_undecided;
          Alcotest.test_case "cross influence exact" `Quick
            test_cross_influence_exact;
          Alcotest.test_case "decisions respect bound" `Quick
            test_decisions_respect_bound;
          Alcotest.test_case "other algorithms too" `Quick
            test_two_phase_also_respects_bound;
          Alcotest.test_case "ratio bounded (optimality)" `Slow
            test_ratio_stays_bounded;
          QCheck_alcotest.to_alcotest prop_bound_holds_on_random_fack;
        ] );
      ( "fold",
        [
          Alcotest.test_case "initial self influence" `Quick
            test_fold_initial_self_influence;
          Alcotest.test_case "first time kept" `Quick test_fold_first_time_kept;
          Alcotest.test_case "transitivity" `Quick test_fold_transitivity;
          Alcotest.test_case "broadcast isolation" `Quick
            test_fold_broadcast_isolation;
          Alcotest.test_case "earliest full influence" `Quick
            test_fold_earliest_full_influence;
          Alcotest.test_case "influence set" `Quick test_fold_influence_set;
          Alcotest.test_case "recovery boot keeps first" `Quick
            test_fold_recovery_boot_keeps_first;
          Alcotest.test_case "ignores non-informational vertices" `Quick
            test_fold_ignores_non_informational;
          Alcotest.test_case "empty dag" `Quick test_fold_empty_dag;
          QCheck_alcotest.to_alcotest prop_fold_line_hop_distance;
        ] );
    ]
