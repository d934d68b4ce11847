(* Satellite: the interference-aware MAC mode and the engine's multi-hop
   machinery. Pins (1) the contention-stretch law itself (zero at zero
   contention, monotone, capped), (2) the engine's event-level semantics:
   ack stretch grows with the sender's LOCAL contention, measured over its
   current neighbors only, (3) record/replay byte-identity of an
   interference run at 1000 nodes, (4) keying equivalence / zero
   collisions of the explorer over topo_gen topologies (the new engine
   paths feed the same fingerprinted state), and (5) topology-delta
   ordering: a Topo event lands after every same-tick delivery and ack,
   and (6) a small fixed-seed Multihop_fuzz campaign stays safe.

   The eleventh-hour degenerate check — alpha = 0 byte-identical to the
   base scheduler on all 11 goldens — lives in test_golden.ml, next to
   the corpus it replays. *)

module A = Amac.Algorithm
module S = Amac.Scheduler

(* Probe: broadcast once at init, decide the input on ack — the ack time
   is then readable off the decision. *)
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

(* Probe: rebroadcast forever (for the delta-visibility tests). *)
let forever : (unit, string) A.t =
  {
    name = "forever";
    init = (fun _ctx -> ((), [ A.Broadcast "x" ]));
    on_receive = (fun _ctx () _msg -> []);
    on_ack = (fun _ctx () -> [ A.Broadcast "x" ]);
    msg_ids = (fun _ -> 0);
    hooks = None;
  }

let ack_times outcome =
  Array.map
    (function
      | Some (_, t) -> t
      | None -> Alcotest.fail "probe node failed to decide")
    outcome.Amac.Engine.decisions

(* ------------------------------------------------------------------ *)
(* The stretch law, directly on the scheduler value. *)

let stretch_of sched =
  match sched.S.contention_stretch with
  | Some f -> f
  | None -> Alcotest.fail "interference scheduler lost its stretch hook"

let test_stretch_law () =
  let f = stretch_of (S.interference ~alpha:2 (S.fixed ~delay:3)) in
  Alcotest.(check int) "zero at zero contention" 0 (f ~contention:0);
  Alcotest.(check int) "linear" 6 (f ~contention:3);
  (* default cap = 4 * fack = 12 *)
  Alcotest.(check int) "capped" 12 (f ~contention:50);
  let rec monotone prev k =
    if k > 30 then ()
    else begin
      let s = f ~contention:k in
      Alcotest.(check bool) "monotone in contention" true (s >= prev);
      monotone s (k + 1)
    end
  in
  monotone 0 0;
  let capped = stretch_of (S.interference ~alpha:5 ~cap:7 (S.fixed ~delay:2)) in
  Alcotest.(check int) "explicit cap" 7 (capped ~contention:100);
  Alcotest.(check string) "derived name" "fixed(3)+sinr(a=1,cap=12)"
    (S.interference ~alpha:1 (S.fixed ~delay:3)).S.name;
  Alcotest.(check string) "name override" "fixed(3)"
    (S.interference ~name:"fixed(3)" ~alpha:0 (S.fixed ~delay:3)).S.name;
  Alcotest.check_raises "negative alpha"
    (Invalid_argument "Scheduler.interference: alpha must be >= 0") (fun () ->
      ignore (S.interference ~alpha:(-1) (S.fixed ~delay:3)))

(* ------------------------------------------------------------------ *)
(* Engine semantics: acks stretch with local contention. On a clique all
   n nodes broadcast at t = 0 in index order, so node i transmits with i
   neighbors already on air: its ack lands at delay + alpha*i. *)

let run_clique ~n ~alpha ?cap () =
  Amac.Engine.run once
    ~topology:(Amac.Topology.clique n)
    ~scheduler:(S.interference ~alpha ?cap (S.fixed ~delay:3))
    ~inputs:(Array.make n 0)

let test_ack_stretch_monotone_in_contention () =
  let outcome = run_clique ~n:5 ~alpha:1 () in
  Alcotest.(check (array int))
    "ack of node i stretched by its contention i" [| 3; 4; 5; 6; 7 |]
    (ack_times outcome);
  (* Doubling alpha doubles every stretch... *)
  let outcome = run_clique ~n:5 ~alpha:2 () in
  Alcotest.(check (array int)) "alpha scales the stretch"
    [| 3; 5; 7; 9; 11 |] (ack_times outcome);
  (* ...and the cap clips the tail. *)
  let outcome = run_clique ~n:5 ~alpha:2 ~cap:5 () in
  Alcotest.(check (array int)) "cap clips the stretch" [| 3; 5; 7; 8; 8 |]
    (ack_times outcome);
  (* alpha = 0 is the contention-free baseline. *)
  let outcome = run_clique ~n:5 ~alpha:0 () in
  Alcotest.(check (array int)) "alpha=0 is unstretched" [| 3; 3; 3; 3; 3 |]
    (ack_times outcome)

let test_contention_is_local () =
  (* On the line 0-1-2 node 2 only sees node 1 on air (node 0 is two hops
     away), so its stretch is 1 where the clique's would be 2. *)
  let line =
    Amac.Engine.run once
      ~topology:(Amac.Topology.line 3)
      ~scheduler:(S.interference ~alpha:1 (S.fixed ~delay:3))
      ~inputs:[| 0; 0; 0 |]
  in
  Alcotest.(check (array int)) "line: only on-air NEIGHBORS count"
    [| 3; 4; 4 |] (ack_times line);
  let clique =
    Amac.Engine.run once
      ~topology:(Amac.Topology.clique 3)
      ~scheduler:(S.interference ~alpha:1 (S.fixed ~delay:3))
      ~inputs:[| 0; 0; 0 |]
  in
  Alcotest.(check (array int)) "clique: both broadcasters load node 2"
    [| 3; 4; 5 |] (ack_times clique)

let test_contention_metrics_gated () =
  (* Interference runs register the contention families; contention-free
     runs must not (golden snapshots stay byte-identical). *)
  let run scheduler =
    let reg = Obs.Metrics.create () in
    ignore
      (Amac.Engine.run once
         ~topology:(Amac.Topology.clique 3)
         ~scheduler ~inputs:[| 0; 0; 0 |] ~obs:reg);
    Obs.Metrics.render (Obs.Metrics.snapshot reg)
  in
  let base = run (S.fixed ~delay:3) in
  let stretched = run (S.interference ~alpha:1 (S.fixed ~delay:3)) in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "base run has no contention families" false
    (contains base "engine_contention");
  Alcotest.(check bool) "interference run has contention hist" true
    (contains stretched "engine_contention_neighbors");
  Alcotest.(check bool) "interference run has stretch hist" true
    (contains stretched "engine_ack_stretch_ticks")

(* ------------------------------------------------------------------ *)
(* Record/replay byte-identity at 1000 nodes: record an interference run
   over a 25x40 grid, replay the decision list with the stretch hook
   reattached, and demand the identical event timeline. *)

let test_record_replay_1000_nodes () =
  let n = 1000 in
  let topology =
    Topo_gen.generate ~seed:11 (Topo_gen.Grid { width = 25; height = 40 })
  in
  let inputs = Array.init n (fun i -> i mod 2) in
  let interfered =
    S.interference ~alpha:1 (S.random (Amac.Rng.create 7) ~fack:3)
  in
  let recording, recorded = S.record interfered in
  let first =
    Amac.Engine.run once ~topology ~scheduler:recording ~inputs
      ~record_trace:true
  in
  let decisions = recorded () in
  Alcotest.(check int) "one decision per broadcast" n (List.length decisions);
  let replayed =
    {
      (S.replay decisions) with
      S.contention_stretch = interfered.S.contention_stretch;
    }
  in
  let second =
    Amac.Engine.run once ~topology ~scheduler:replayed ~inputs
      ~record_trace:true
  in
  Alcotest.(check string) "timelines byte-identical"
    (Amac.Trace.timeline ~n first.Amac.Engine.trace)
    (Amac.Trace.timeline ~n second.Amac.Engine.trace);
  Alcotest.(check int) "same deliveries" first.Amac.Engine.deliveries
    second.Amac.Engine.deliveries;
  Alcotest.(check int) "same end time" first.Amac.Engine.end_time
    second.Amac.Engine.end_time;
  (* The run genuinely exercised interference: some ack was stretched past
     the base scheduler's F_ack. *)
  Alcotest.(check bool) "some ack stretched beyond base fack" true
    (first.Amac.Engine.end_time > 3)

(* ------------------------------------------------------------------ *)
(* Keying equivalence over the new topologies: the fingerprint-keyed
   explorer must carve the state space exactly as the Marshal one, with
   zero observed collisions, on multi-hop topo_gen graphs. *)

let test_keying_equivalence_on_topo_gen () =
  List.iter
    (fun (tname, spec, inputs) ->
      let topology = Topo_gen.generate ~seed:3 spec in
      let config keying check_collisions =
        {
          Mcheck.Explore.default with
          max_depth = 14;
          max_states = 60_000;
          keying;
          check_collisions;
        }
      in
      let run keying check =
        Mcheck.Explore.explore (config keying check)
          Consensus.Two_phase.algorithm ~topology ~inputs
      in
      let fast = run `Fast true and marshal = run `Marshal false in
      Alcotest.(check int) (tname ^ ": zero collisions") 0
        fast.Mcheck.Explore.collisions;
      Alcotest.(check int) (tname ^ ": same states")
        marshal.Mcheck.Explore.states fast.Mcheck.Explore.states;
      Alcotest.(check int) (tname ^ ": same transitions")
        marshal.Mcheck.Explore.transitions fast.Mcheck.Explore.transitions;
      Alcotest.(check int) (tname ^ ": same sleep skips")
        marshal.Mcheck.Explore.sleep_skips fast.Mcheck.Explore.sleep_skips;
      Alcotest.(check int) (tname ^ ": no violations") 0
        (List.length fast.Mcheck.Explore.violations))
    [
      ( "cluster:2x2",
        Topo_gen.Cluster { clusters = 2; size = 2; extra_bridges = 0 },
        [| 0; 1; 1; 0 |] );
      ("rgg:4", Topo_gen.Rgg { n = 4; radius = 0.8 }, [| 0; 1; 0; 1 |]);
    ]

(* ------------------------------------------------------------------ *)
(* Topology deltas inside a run. *)

let deliveries_to ~node ~sender trace =
  List.filter_map
    (function
      | Amac.Trace.Delivered { time; node = n'; sender = s'; _ }
        when n' = node && s' = sender ->
          Some time
      | _ -> None)
    trace

let test_topo_delta_changes_reachability () =
  (* forever on the line 0-1-2 with fixed delay 2; adding edge (0,2) at
     t = 2 makes node 2 hear node 0 directly from the NEXT broadcast on. *)
  let run deltas =
    Amac.Engine.run forever
      ~topology:(Amac.Topology.line 3)
      ~scheduler:(S.fixed ~delay:2) ~inputs:[| 0; 0; 0 |] ~max_time:8
      ~record_trace:true ?topo_deltas:deltas
  in
  let base = run None in
  Alcotest.(check int) "no deltas recorded" 0 base.Amac.Engine.topo_changes;
  Alcotest.(check (list int)) "line: 2 never hears 0 directly" []
    (deliveries_to ~node:2 ~sender:0 base.Amac.Engine.trace);
  let patched = run (Some [ (2, Amac.Topology.Add_edge (0, 2)) ]) in
  Alcotest.(check int) "delta recorded" 1 patched.Amac.Engine.topo_changes;
  (* Priority ordering: the t=2 Topo event lands AFTER the t=2 acks, so
     the broadcast issued on that ack still uses the old neighbor set —
     0's first delivery to 2 rides the t=4 broadcast, landing at t=6. *)
  Alcotest.(check (list int)) "first direct delivery only after the delta"
    [ 6; 8 ]
    (deliveries_to ~node:2 ~sender:0 patched.Amac.Engine.trace)

let test_topo_delta_removal_quiets_edge () =
  let run deltas =
    Amac.Engine.run forever
      ~topology:(Amac.Topology.line 3)
      ~scheduler:(S.fixed ~delay:2) ~inputs:[| 0; 0; 0 |] ~max_time:8
      ~record_trace:true ?topo_deltas:deltas
  in
  let base = run None in
  let cut = run (Some [ (2, Amac.Topology.Remove_edge (0, 1)) ]) in
  (* In-flight deliveries still land (the t=2 wave was planned at t=0 and
     the t=2 acks rebroadcast before the delta applies), but no wave
     planned after the removal crosses the edge. *)
  Alcotest.(check (list int)) "before the cut 1 hears 0"
    [ 2; 4 ]
    (deliveries_to ~node:1 ~sender:0 cut.Amac.Engine.trace);
  Alcotest.(check bool) "without the cut the edge keeps delivering" true
    (List.length (deliveries_to ~node:1 ~sender:0 base.Amac.Engine.trace) > 2);
  Alcotest.(check bool) "fewer deliveries overall" true
    (cut.Amac.Engine.deliveries < base.Amac.Engine.deliveries)

let test_topo_delta_validation () =
  let run deltas =
    ignore
      (Amac.Engine.run once
         ~topology:(Amac.Topology.line 3)
         ~scheduler:S.synchronous ~inputs:[| 0; 0; 0 |] ~topo_deltas:deltas)
  in
  (match run [ (-1, Amac.Topology.Add_edge (0, 2)) ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative delta time accepted");
  (* The engine mutates a PRIVATE copy: the caller's topology is intact. *)
  let topology = Amac.Topology.line 3 in
  ignore
    (Amac.Engine.run once ~topology ~scheduler:S.synchronous
       ~inputs:[| 0; 0; 0 |]
       ~topo_deltas:[ (1, Amac.Topology.Add_edge (0, 2)) ]);
  Alcotest.(check bool) "caller topology untouched" false
    (Amac.Topology.has_edge topology 0 2)

(* Contention accounting stays exact under churn: an edge added while the
   far endpoint is on air must load the near endpoint immediately. The
   sequence is pinned end-to-end by ack times. *)
let test_contention_tracks_deltas () =
  let outcome =
    Amac.Engine.run once
      ~topology:(Amac.Topology.clique 3)
      ~scheduler:(S.interference ~alpha:1 (S.fixed ~delay:3))
      ~inputs:[| 0; 0; 0 |]
      ~topo_deltas:[ (0, Amac.Topology.Remove_edge (1, 2)) ]
  in
  (* Broadcasts at t=0 precede the t=0 Topo event (priority 5): stretches
     are the clique's 0,1,2. The ack decrements walk the CURRENT neighbor
     lists — with (1,2) gone — and must not underflow or miscount. *)
  Alcotest.(check (array int)) "acks pinned across the removal"
    [| 3; 4; 5 |] (ack_times outcome);
  Alcotest.(check int) "one topo change" 1 outcome.Amac.Engine.topo_changes

(* ------------------------------------------------------------------ *)
(* The interference campaign: a small fixed-seed run stays safe. *)

let test_fuzz_smoke () =
  let campaign = Multihop_fuzz.campaign Multihop_fuzz.default in
  let outcome = Mcheck.Campaign.run campaign ~iterations:6 ~seed:3 in
  (match outcome.counterexample with
  | None -> ()
  | Some cx -> Alcotest.failf "multihop fuzz failure:@.%a" campaign.pp cx);
  Alcotest.(check int) "all iterations ran" 6 outcome.iterations_run

let () =
  Alcotest.run "multihop"
    [
      ( "stretch law",
        [
          Alcotest.test_case "zero/monotone/capped" `Quick test_stretch_law;
          Alcotest.test_case "ack stretch monotone in contention" `Quick
            test_ack_stretch_monotone_in_contention;
          Alcotest.test_case "contention is local" `Quick
            test_contention_is_local;
          Alcotest.test_case "contention metrics gated" `Quick
            test_contention_metrics_gated;
        ] );
      ( "record/replay",
        [
          Alcotest.test_case "byte-identity at 1000 nodes" `Quick
            test_record_replay_1000_nodes;
        ] );
      ( "keying",
        [
          Alcotest.test_case "fast == marshal on topo_gen graphs" `Quick
            test_keying_equivalence_on_topo_gen;
        ] );
      ( "topology deltas",
        [
          Alcotest.test_case "addition changes reachability" `Quick
            test_topo_delta_changes_reachability;
          Alcotest.test_case "removal quiets the edge" `Quick
            test_topo_delta_removal_quiets_edge;
          Alcotest.test_case "validation and copy isolation" `Quick
            test_topo_delta_validation;
          Alcotest.test_case "contention exact under churn" `Quick
            test_contention_tracks_deltas;
        ] );
      ("fuzz", [ Alcotest.test_case "clean campaign" `Quick test_fuzz_smoke ]);
    ]
