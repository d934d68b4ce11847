(* Event order at scale. The goldens pin small runs byte for byte; these
   four pin the MD5 of the full rendered [Trace.pp] of runs whose queues
   are deep or whose pre-scheduled events (injections, faults, topology
   deltas) sit far ahead of the current tick, so any change to the engine's
   event queue that reorders a single pop shows here.

   The trace is rendered in chunks: each chunk's text is appended to the
   running digest's hex and hashed again, so a 400-node trace never has to
   exist as one string. To print the digests after an intentional change:

     dune build @all && PRINT_DIGESTS=1 ./_build/default/test/test_event_order.exe *)

module S = Amac.Scheduler

let digest_of_trace entries =
  let buf = Buffer.create 65536 in
  let fmt = Format.formatter_of_buffer buf in
  let acc = ref "" in
  let fold () =
    Format.pp_print_flush fmt ();
    acc := Digest.to_hex (Digest.string (!acc ^ Buffer.contents buf));
    Buffer.clear buf
  in
  List.iter
    (fun entry ->
      Amac.Trace.pp fmt [ entry ];
      if Buffer.length buf >= 60_000 then fold ())
    entries;
  fold ();
  !acc

let check name expected (outcome : Amac.Engine.outcome) =
  let got = digest_of_trace outcome.trace in
  if Sys.getenv_opt "PRINT_DIGESTS" <> None then
    Printf.printf "%s: %s (%d entries, %d events)\n" name got
      (List.length outcome.trace) outcome.events_processed;
  Alcotest.(check string) name expected got

(* B14's 400-node grid under fixed(3)+sinr(alpha=2): a deep queue whose
   stretched deliveries land up to F_ack + 4 * contention ticks ahead. *)
let test_wpaxos_grid () =
  let topology =
    Topo_gen.generate ~seed:1 (Topo_gen.Grid { width = 20; height = 20 })
  in
  let n = Amac.Topology.size topology in
  let inputs = Consensus.Runner.inputs_random (Amac.Rng.create 42) ~n in
  let outcome =
    Amac.Engine.run (Consensus.Wpaxos.make ()) ~topology
      ~scheduler:(S.interference ~alpha:2 (S.fixed ~delay:3))
      ~inputs ~record_trace:true ~pp_msg:Consensus.Wpaxos.pp_msg
  in
  check "wpaxos grid:20x20" "1e7af5f09ff2b20db52da256e35f7cfa" outcome

(* SMR with an open-loop client schedule, so injections are queued from the
   start far ahead of now, through a crash, its amnesiac recovery and a
   partition. *)
let test_smr_faults () =
  let result =
    Workload.run
      ~faults:
        [
          Fault.Crash { node = 1; at = 150 };
          Fault.Recover { node = 1; at = 420 };
          Fault.Partition { cut = [ 3 ]; from_ = 600; until = 700 };
        ]
      ~topology:(Amac.Topology.clique 5)
      ~scheduler:(S.bursty ~fack:3 ~fast_len:40 ~slow_len:12)
      ~seed:42 ~cmds:400
      ~mode:(Workload.Open_loop { mean_gap = 2 })
      ~record_trace:true ()
  in
  check "smr clique:5" "6a0d7fa8cfecb9b61298fddb5907cee5"
    result.Workload.outcome

(* Churn and mobility deltas on a 10x10 grid, queued at the start for
   times up to a few hundred ticks ahead. *)
let test_topo_deltas () =
  let topology =
    Topo_gen.generate ~seed:3 (Topo_gen.Grid { width = 10; height = 10 })
  in
  let n = Amac.Topology.size topology in
  let inputs = Consensus.Runner.inputs_random (Amac.Rng.create 7) ~n in
  let churn = Topo_gen.churn ~seed:5 topology ~events:30 ~start:4 ~gap:9 in
  let outcome =
    Amac.Engine.run (Consensus.Wpaxos.make ()) ~topology
      ~scheduler:(S.interference ~alpha:1 (S.random (Amac.Rng.create 11) ~fack:4))
      ~inputs ~topo_deltas:churn ~record_trace:true
      ~pp_msg:Consensus.Wpaxos.pp_msg
  in
  Alcotest.(check bool) "deltas applied" true (outcome.topo_changes > 0);
  check "wpaxos churn grid:10x10" "42953f9e31e5ecc78e94b04aeb70d78c" outcome

(* Every path a queued delivery can take between its broadcast and its
   handler, in one run: a Byzantine [substitute] hook that silences some
   deliveries and strips the Leader component from others (equivocation:
   receivers of one broadcast see different payloads), unreliable diagonal
   edges granted under interference, node 7 crashed at t=2 in the middle of
   its first broadcast and recovered at t=60, a link-drop window at node 0,
   a stutter window at node 5, and injected change stamps (one of them at
   the crashed node 7, so it is lost). The digest was computed on the
   engine before its events became pooled int descriptors. *)
let test_all_delivery_paths () =
  let width = 6 and height = 6 in
  let n = width * height in
  let topology = Amac.Topology.grid ~width ~height in
  let diagonals =
    List.concat
      (List.init (height - 1) (fun r ->
           List.init (width - 1) (fun c ->
               ((r * width) + c, ((r + 1) * width) + c + 1))))
  in
  let unreliable = Amac.Topology.of_edges ~n diagonals in
  let scheduler =
    S.interference ~alpha:1
      (S.bernoulli_unreliable (Amac.Rng.create 13) ~p:0.5
         (S.random (Amac.Rng.create 11) ~fack:4))
  in
  let substitute ~now ~sender ~receiver msg =
    match (now + sender + (2 * receiver)) mod 11 with
    | 0 -> None
    | 1 ->
        Some
          (List.filter
             (function Consensus.Wpaxos.Leader _ -> false | _ -> true)
             msg)
    | _ -> Some msg
  in
  let drop ~now ~sender ~receiver =
    now >= 15 && now < 35 && (sender = 0 || receiver = 0)
  in
  let stutter ~now ~node = node = 5 && now >= 20 && now < 45 in
  let algorithm = Consensus.Wpaxos.make () in
  let on_inject ~now:_ ~payload ctx st =
    algorithm.Amac.Algorithm.on_receive ctx st
      [ Consensus.Wpaxos.Change { counter = payload; origin = 0 } ]
  in
  let inputs = Consensus.Runner.inputs_random (Amac.Rng.create 3) ~n in
  let outcome =
    Amac.Engine.run algorithm ~topology ~scheduler ~inputs ~unreliable
      ~substitute ~drop ~stutter ~crashes:[ (7, 2) ] ~recoveries:[ (7, 60) ]
      ~injections:[ (3, 5, 40); (10, 25, 41); (7, 30, 42); (20, 70, 43) ]
      ~on_inject ~max_time:400 ~record_trace:true
      ~pp_msg:Consensus.Wpaxos.pp_msg
  in
  let o = outcome in
  Alcotest.(check bool) "every path taken" true
    (o.suppressed > 0 && o.substituted > 0 && o.unreliable_deliveries > 0
   && o.dropped > 0 && o.link_dropped > 0 && o.stuttered > 0
   && o.injected = 3);
  check "all delivery paths grid:6x6" "0c15601a0f4f088cc4e37ce0f0462c6e" outcome

(* flood-paxos's wire text: every acceptor response is flooded as its own
   unit, so this trace pins the baseline's queues message by message. *)
let test_flood_paxos () =
  let topology = Amac.Topology.star_of_lines ~arms:8 ~arm_len:4 in
  let n = Amac.Topology.size topology in
  let outcome =
    Amac.Engine.run
      (Consensus.Flood_paxos.make ())
      ~topology
      ~scheduler:(S.random (Amac.Rng.create 5) ~fack:3)
      ~inputs:(Consensus.Runner.inputs_random (Amac.Rng.create 2) ~n)
      ~record_trace:true ~pp_msg:Consensus.Flood_paxos.pp_msg
  in
  check "flood-paxos star_of_lines 8x4" "eccbc1a2895cb97fefa4b4550195cf8a"
    outcome

let () =
  Alcotest.run "event_order"
    [
      ( "digest",
        [
          Alcotest.test_case "wpaxos grid:20x20 sinr" `Quick test_wpaxos_grid;
          Alcotest.test_case "smr clique:5 faults" `Quick test_smr_faults;
          Alcotest.test_case "topology deltas" `Quick test_topo_deltas;
          Alcotest.test_case "every delivery path" `Quick
            test_all_delivery_paths;
          Alcotest.test_case "flood-paxos star of lines" `Quick
            test_flood_paxos;
        ] );
    ]
