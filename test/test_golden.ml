(* Satellite: golden-trace regression corpus. Four canonical seeded runs —
   spanning the baseline two-phase protocol, hardened wPAXOS under
   crash-recovery, randomized Ben-Or, and the SMR replicated log — are
   rendered (event timeline + metrics snapshot) and compared byte-for-byte
   against committed artifacts in test/golden/.

   Any change to engine event ordering, scheduler decisions, algorithm
   message flow, or metrics instrumentation shows up as a diff here, with
   the full before/after visible in the artifact. To regenerate after an
   intentional change:

     dune build @all && UPDATE_GOLDEN=$PWD/test/golden \
       ./_build/default/test/test_golden.exe

   then review the diff like any other code change. *)

let render ~n (outcome : Amac.Engine.outcome) reg =
  let b = Buffer.create 8192 in
  Buffer.add_string b (Amac.Trace.timeline ~n outcome.Amac.Engine.trace);
  Buffer.add_string b "\n--- metrics ---\n";
  Buffer.add_string b (Obs.Metrics.render (Obs.Metrics.snapshot reg));
  Buffer.contents b

let scenario_two_phase ?(wrap = Fun.id) () =
  let reg = Obs.Metrics.create () in
  let result =
    Consensus.Runner.run Consensus.Two_phase.algorithm
      ~topology:(Amac.Topology.clique 3)
      ~scheduler:(wrap Amac.Scheduler.synchronous) ~inputs:[| 0; 1; 1 |]
      ~record_trace:true ~obs:reg
  in
  render ~n:3 result.Consensus.Runner.outcome reg

(* The wPAXOS scenario also pins the causal provenance DAG: the exact
   vertex/cause structure under crash-recovery (Boot roots for both
   incarnations of node 1) is part of the golden contract. *)
let scenario_wpaxos_crash_recovery ?(wrap = Fun.id) () =
  let reg = Obs.Metrics.create () in
  let prov = Obs.Provenance.create () in
  let result =
    Consensus.Runner.run (Consensus.Wpaxos.make ())
      ~topology:(Amac.Topology.line 4)
      ~scheduler:(wrap (Amac.Scheduler.random (Amac.Rng.create 9) ~fack:2))
      ~inputs:[| 1; 0; 1; 0 |]
      ~faults:
        [ Fault.Crash { node = 1; at = 5 }; Fault.Recover { node = 1; at = 40 } ]
      ~record_trace:true ~obs:reg ~provenance:prov
  in
  render ~n:4 result.Consensus.Runner.outcome reg
  ^ "\n--- provenance ---\n"
  ^ Obs.Json.to_string (Obs.Provenance.to_json prov)
  ^ "\n"

let scenario_ben_or ?(wrap = Fun.id) () =
  let reg = Obs.Metrics.create () in
  let result =
    Consensus.Runner.run
      (Consensus.Ben_or.make ~seed:3 ())
      ~topology:(Amac.Topology.clique 3)
      ~scheduler:(wrap (Amac.Scheduler.random (Amac.Rng.create 4) ~fack:1))
      ~inputs:[| 0; 1; 0 |] ~record_trace:true ~obs:reg
  in
  render ~n:3 result.Consensus.Runner.outcome reg

let scenario_smr_closed_loop ?(wrap = Fun.id) () =
  let reg = Obs.Metrics.create () in
  let result =
    Workload.run
      ~topology:(Amac.Topology.clique 3)
      ~scheduler:(wrap Amac.Scheduler.synchronous) ~seed:21 ~cmds:6
      ~mode:(Workload.Closed_loop { clients_per_node = 1 })
      ~record_trace:true ~obs:reg ()
  in
  render ~n:3 result.Workload.outcome reg

(* Lifecycle goldens. Compaction: an aggressive watermark plus a mid-run
   crash long enough that the floor moves past the dead replica's log, so
   recovery MUST go through a snapshot transfer — the snap component, the
   install, and the post-install repair tail all land in the timeline.
   Reconfiguration: a 3-voter cluster (two learners) scales to 5 through
   the joint command mid-traffic; the Change floods, the lease restarts
   and the epoch bump are all pinned. Both tiny enough to review as text. *)
let scenario_smr_compaction ?(wrap = Fun.id) () =
  let reg = Obs.Metrics.create () in
  let result =
    Workload.run ~compact_every:4
      ~faults:
        [
          Fault.Crash { node = 0; at = 30 };
          Fault.Recover { node = 0; at = 160 };
        ]
      ~topology:(Amac.Topology.clique 3)
      ~scheduler:(wrap Amac.Scheduler.synchronous) ~seed:15 ~cmds:12
      ~mode:(Workload.Open_loop { mean_gap = 4 })
      ~record_trace:true ~obs:reg ()
  in
  render ~n:3 result.Workload.outcome reg

let scenario_smr_reconfig ?(wrap = Fun.id) () =
  let reg = Obs.Metrics.create () in
  let result =
    Workload.run ~members:[ 0; 1; 2 ]
      ~reconfigs:[ (0, 40, [ 0; 1; 2; 3; 4 ]) ]
      ~topology:(Amac.Topology.clique 5)
      ~scheduler:(wrap Amac.Scheduler.synchronous) ~seed:27 ~cmds:8
      ~mode:(Workload.Open_loop { mean_gap = 6 })
      ~record_trace:true ~obs:reg ()
  in
  render ~n:5 result.Workload.outcome reg

(* Sharded golden: two groups multiplexed over one 3-node MAC run with
   batch = 2 — group-tagged bundle broadcasts, the shared wire slot and
   the batch flush/expansion cycle are all visible in the timeline. *)
let scenario_smr_sharded ?(wrap = Fun.id) () =
  let reg = Obs.Metrics.create () in
  let result =
    Shard_workload.run
      ~topology:(Amac.Topology.clique 3)
      ~scheduler:(wrap Amac.Scheduler.synchronous) ~seed:33 ~cmds:8 ~groups:2
      ~batch:2 ~mean_gap:4 ~key_space:16 ~record_trace:true ~obs:reg ()
  in
  render ~n:3 result.Shard_workload.outcome reg

let scenario_counter_race ?(wrap = Fun.id) () =
  let reg = Obs.Metrics.create () in
  let result =
    Consensus.Runner.run
      (Counter_race.make ())
      ~topology:(Amac.Topology.clique 3)
      ~scheduler:(wrap (Amac.Scheduler.random (Amac.Rng.create 6) ~fack:2))
      ~inputs:[| 0; 1; 1 |] ~record_trace:true ~obs:reg
  in
  render ~n:3 result.Consensus.Runner.outcome reg

let scenario_byz_consensus ?(wrap = Fun.id) () =
  let reg = Obs.Metrics.create () in
  let result =
    Consensus.Runner.run
      (Consensus.Byz_consensus.make ~seed:2 ())
      ~topology:(Amac.Topology.clique 4)
      ~scheduler:(wrap (Amac.Scheduler.random (Amac.Rng.create 13) ~fack:2))
      ~inputs:[| 0; 1; 1; 0 |] ~record_trace:true ~obs:reg
  in
  render ~n:4 result.Consensus.Runner.outcome reg

(* The canonical 1-Byzantine runs: node n-1 wrapped with replay+forge
   behaviors and an early equivocation window against the low half — the
   adversary's suppressions ('#') and substitutions ('*') land in the
   timeline, pinning the engine's substitute-hook event ordering. *)
let byz_scenario algorithm adapter ~n ~seed ~inputs ?(wrap = Fun.id) () =
  let reg = Obs.Metrics.create () in
  let strategy =
    {
      Byz.Model.byz =
        [ (n - 1, { Byz.Model.replay_period = 3; forge_period = 2; drop_own = false }) ];
      tampers =
        [
          {
            Byz.Model.node = n - 1;
            victims = List.init (n / 2) Fun.id;
            from_ = 0;
            until = 40;
            kind = Byz.Model.Equivocate;
          };
        ];
      seed = 77;
    }
  in
  let wrapped = Byz.Model.wrap ~n ~adapter ~strategy algorithm in
  let result =
    Consensus.Runner.run wrapped.Byz.Model.algorithm
      ~topology:(Amac.Topology.clique n)
      ~scheduler:(wrap (Amac.Scheduler.random (Amac.Rng.create seed) ~fack:2))
      ~inputs ~substitute:wrapped.Byz.Model.substitute
      ~honest:wrapped.Byz.Model.honest ~record_trace:true ~obs:reg
  in
  render ~n result.Consensus.Runner.outcome reg

let scenario_counter_race_byz =
  byz_scenario
    (Counter_race.make ())
    Counter_race.adapter ~n:3 ~seed:8 ~inputs:[| 0; 1; 1 |]

let scenario_byz_consensus_byz =
  byz_scenario
    (Consensus.Byz_consensus.make ~seed:2 ())
    Byz.Adapters.byz_consensus ~n:4 ~seed:19 ~inputs:[| 0; 1; 1; 0 |]

(* Multi-hop golden: wPAXOS on a seeded 3x3 grid under the interference
   scheduler (alpha = 1) with two churn deltas mid-run. The contention
   metric families, the per-node ack-stretch histograms and the Topo
   bookkeeping are all part of this golden's contract. *)
let scenario_wpaxos_multihop_grid ?(wrap = Fun.id) () =
  let reg = Obs.Metrics.create () in
  let topology =
    Topo_gen.generate ~seed:5 (Topo_gen.Grid { width = 3; height = 3 })
  in
  let topo_deltas = Topo_gen.churn ~seed:5 topology ~events:2 ~start:6 ~gap:8 in
  let result =
    Consensus.Runner.run (Consensus.Wpaxos.make ()) ~topology
      ~scheduler:
        (wrap
           (Amac.Scheduler.interference ~alpha:1
              (Amac.Scheduler.random (Amac.Rng.create 12) ~fack:2)))
      ~inputs:(Consensus.Runner.inputs_alternating ~n:9)
      ~topo_deltas ~record_trace:true ~obs:reg
  in
  render ~n:9 result.Consensus.Runner.outcome reg

let scenarios :
    (string * (?wrap:(Amac.Scheduler.t -> Amac.Scheduler.t) -> unit -> string))
    list =
  [
    ("two_phase_sync", scenario_two_phase);
    ("wpaxos_crash_recovery", scenario_wpaxos_crash_recovery);
    ("ben_or_random", scenario_ben_or);
    ("smr_closed_loop", scenario_smr_closed_loop);
    ("smr_compaction_transfer", scenario_smr_compaction);
    ("smr_reconfig_3to5", scenario_smr_reconfig);
    ("smr_sharded_2groups", scenario_smr_sharded);
    ("counter_race_random", scenario_counter_race);
    ("byz_consensus_random", scenario_byz_consensus);
    ("counter_race_1byz", scenario_counter_race_byz);
    ("byz_consensus_1byz", scenario_byz_consensus_byz);
    ("wpaxos_multihop_grid", scenario_wpaxos_multihop_grid);
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let test_scenario
    ( name,
      (produce :
        ?wrap:(Amac.Scheduler.t -> Amac.Scheduler.t) -> unit -> string) ) () =
  let actual = produce () in
  match Sys.getenv_opt "UPDATE_GOLDEN" with
  | Some dir ->
      write_file (Filename.concat dir (name ^ ".txt")) actual;
      Printf.printf "updated %s/%s.txt (%d bytes)\n" dir name
        (String.length actual)
  | None ->
      let path = Filename.concat "golden" (name ^ ".txt") in
      if not (Sys.file_exists path) then
        Alcotest.failf
          "missing golden artifact %s — regenerate with UPDATE_GOLDEN (see \
           header comment)"
          path;
      let expected = read_file path in
      if expected <> actual then begin
        (* Byte-identical or bust; print a usable first-divergence pointer
           rather than two multi-KB blobs. *)
        let len = min (String.length expected) (String.length actual) in
        let i = ref 0 in
        while !i < len && expected.[!i] = actual.[!i] do
          incr i
        done;
        let context s =
          let lo = max 0 (!i - 80)
          and hi = min (String.length s) (!i + 80) in
          String.sub s lo (hi - lo)
        in
        Alcotest.failf
          "golden mismatch for %s at byte %d (expected %d bytes, got %d)@.--- \
           expected around divergence ---@.%s@.--- actual around divergence \
           ---@.%s"
          name !i
          (String.length expected)
          (String.length actual) (context expected) (context actual)
      end

(* Degenerate interference: wrapping every base scenario's scheduler with
   the alpha = 0 stretch (keeping the display name) runs the engine's
   contention-tracking paths on the whole corpus and must reproduce it
   byte-for-byte — modulo the contention metric families the hook itself
   registers, which are stripped before comparing. Scenarios that are
   already interference-aware are left unwrapped (the identity check). *)
let test_degenerate_interference () =
  let degenerate s =
    match s.Amac.Scheduler.contention_stretch with
    | Some _ -> s
    | None ->
        Amac.Scheduler.interference ~name:s.Amac.Scheduler.name ~alpha:0 s
  in
  let starts_with ~prefix line =
    String.length line >= String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  in
  let strip text =
    String.split_on_char '\n' text
    |> List.filter (fun line ->
           not
             (starts_with ~prefix:"engine_contention" line
             || starts_with ~prefix:"engine_ack_stretch" line))
    |> String.concat "\n"
  in
  List.iter
    (fun
      ( name,
        (produce :
          ?wrap:(Amac.Scheduler.t -> Amac.Scheduler.t) -> unit -> string) )
    ->
      let base = produce () and wrapped = produce ~wrap:degenerate () in
      Alcotest.(check string)
        (name ^ ": alpha=0 interference is event-identical")
        (strip base) (strip wrapped))
    scenarios

(* The corpus must also be self-consistent: producing a scenario twice in
   one process yields identical bytes (no hidden global state). *)
let test_reproducible () =
  List.iter
    (fun
      ( name,
        (produce :
          ?wrap:(Amac.Scheduler.t -> Amac.Scheduler.t) -> unit -> string) )
    ->
      let a = produce () and b = produce () in
      Alcotest.(check bool)
        (name ^ ": render is reproducible in-process")
        true (String.equal a b))
    scenarios

let () =
  Alcotest.run "golden"
    [
      ( "corpus",
        List.map
          (fun ((name, _) as s) ->
            Alcotest.test_case name `Quick (test_scenario s))
          scenarios
        @ [
            Alcotest.test_case "degenerate interference reproduces corpus"
              `Quick test_degenerate_interference;
            Alcotest.test_case "in-process reproducibility" `Quick
              test_reproducible;
          ] );
    ]
