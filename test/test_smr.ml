(* Tentpole: the replicated log (lib/smr) driven by the workload generator
   (lib/workload), judged by Smr_checker.

   Covers: a clean closed-loop run commits everything on every replica; the
   ISSUE's acceptance scenario (5 nodes, bursty scheduler, loss-window fault
   plan, >= 200 commands, deterministic from one seed); leader crash
   mid-stream (re-election picks up the log); pipelining window extremes
   behave identically safety-wise; injections to a crashed replica are lost,
   not ghost-submitted; and a seeded fuzz smoke over random
   topology/scheduler/fault draws. *)

let check_clean label (r : Workload.result) =
  Alcotest.(check (list string))
    (label ^ ": no safety violations")
    []
    (List.map Smr_checker.to_string r.violations)

let test_closed_loop_clean () =
  let n = 5 and cmds = 50 in
  let r =
    Workload.run
      ~topology:(Amac.Topology.clique n)
      ~scheduler:Amac.Scheduler.synchronous ~seed:7 ~cmds
      ~mode:(Workload.Closed_loop { clients_per_node = 1 })
      ()
  in
  check_clean "clean closed loop" r;
  Alcotest.(check int) "all commands issued" cmds r.issued;
  Alcotest.(check int) "all commands submitted" cmds r.submitted;
  Alcotest.(check int) "all commands committed" cmds r.committed;
  Alcotest.(check bool)
    "every replica's prefix covers every command" true
    (r.commit_index_min >= cmds);
  Alcotest.(check int)
    "one latency sample per command" cmds
    (Array.length r.latencies);
  (* Quiescence: the run drained on its own, not via the time guard. *)
  Alcotest.(check bool) "run quiesced" false r.outcome.Amac.Engine.hit_max_time

let acceptance_faults =
  [
    Fault.Link_drop { edge = (0, 1); from_ = 40; until = 140 };
    Fault.Link_drop { edge = (2, 3); from_ = 300; until = 420 };
    Fault.Link_drop { edge = (1, 4); from_ = 800; until = 900 };
  ]

let acceptance_run () =
  Workload.run ~window:4 ~faults:acceptance_faults
    ~topology:(Amac.Topology.clique 5)
    ~scheduler:(Amac.Scheduler.bursty ~fack:3 ~fast_len:40 ~slow_len:12)
    ~seed:42 ~cmds:250
    ~mode:(Workload.Closed_loop { clients_per_node = 1 })
    ()

(* The ISSUE's acceptance scenario: a 5-node log under the bursty scheduler
   with bounded loss windows commits >= 200 commands with the checker
   clean, deterministically from the seed. *)
let test_acceptance_scenario () =
  let r = acceptance_run () in
  check_clean "acceptance" r;
  Alcotest.(check bool)
    (Printf.sprintf "committed %d >= 200" r.committed)
    true (r.committed >= 200);
  Alcotest.(check bool)
    "min commit index >= 200" true
    (r.commit_index_min >= 200)

let test_acceptance_deterministic () =
  let a = acceptance_run () and b = acceptance_run () in
  Alcotest.(check int) "same committed" a.committed b.committed;
  Alcotest.(check int)
    "same end time" a.outcome.Amac.Engine.end_time
    b.outcome.Amac.Engine.end_time;
  Alcotest.(check int)
    "same event count" a.outcome.Amac.Engine.events_processed
    b.outcome.Amac.Engine.events_processed;
  Alcotest.(check (array int)) "same latencies" a.latencies b.latencies;
  Alcotest.(check int)
    "same min commit index" a.commit_index_min b.commit_index_min

(* Ω elects the highest unsuspected id, so node n-1 leads initially;
   crashing it mid-stream forces re-election and lease re-establishment.
   The dead leader's client stops resubmitting, but the four survivors'
   clients keep the global budget draining. *)
let test_leader_crash () =
  let n = 5 and cmds = 60 in
  let r =
    Workload.run
      ~crashes:[ (n - 1, 35) ]
      ~topology:(Amac.Topology.clique n)
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 11) ~fack:2)
      ~seed:13 ~cmds
      ~mode:(Workload.Closed_loop { clients_per_node = 1 })
      ()
  in
  check_clean "leader crash" r;
  Alcotest.(check bool)
    (Printf.sprintf "committed %d >= issued - 1 = %d" r.committed
       (r.issued - 1))
    true
    (r.committed >= r.issued - 1);
  Alcotest.(check bool) "made real progress" true (r.committed >= 40)

let test_window_extremes () =
  List.iter
    (fun window ->
      let label = Printf.sprintf "window=%d" window in
      let r =
        Workload.run ~window
          ~topology:(Amac.Topology.line 4)
          ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 5) ~fack:2)
          ~seed:99 ~cmds:40
          ~mode:(Workload.Open_loop { mean_gap = 6 })
          ()
      in
      check_clean label r;
      Alcotest.(check int) (label ^ ": all committed") 40 r.committed;
      Alcotest.(check bool)
        (label ^ ": prefix complete everywhere")
        true (r.commit_index_min >= 40))
    [ 1; 8 ]

(* An injection whose target is down at pop time is lost like a client call
   to a dead server: never submitted, never committed, no ghost latency. *)
let test_injection_to_crashed_node_lost () =
  let n = 3 in
  (* Open loop, seed-chosen placement; crash node 0 for the whole run and
     count only what reached live replicas. *)
  let r =
    Workload.run
      ~crashes:[ (0, 0) ]
      ~topology:(Amac.Topology.clique n)
      ~scheduler:Amac.Scheduler.synchronous ~seed:3 ~cmds:30
      ~mode:(Workload.Open_loop { mean_gap = 5 })
      ()
  in
  check_clean "crashed-target injections" r;
  Alcotest.(check int) "committed = submitted" r.submitted r.committed;
  Alcotest.(check bool)
    (Printf.sprintf "some injections lost (submitted %d < issued %d)"
       r.submitted r.issued)
    true
    (r.submitted < r.issued);
  Alcotest.(check int)
    "engine handed over exactly the live-target injections" r.submitted
    r.outcome.Amac.Engine.injected

let test_fuzz_smoke () =
  let campaign =
    Smr_fuzz.campaign { Smr_fuzz.default with cmds = 15; max_time = 200_000 }
  in
  let outcome = Mcheck.Campaign.run campaign ~iterations:25 ~seed:2026 in
  (match outcome.counterexample with
  | None -> ()
  | Some cx -> Alcotest.failf "fuzz failure:@.%a" campaign.pp cx);
  Alcotest.(check int) "all iterations ran" 25 outcome.iterations_run

(* ------------------------------------------------------------------ *)
(* Satellite: straggler-repair retry (the documented pre-PR 7 bug).

   The bug: repair used to ride heartbeat piggybacking alone — a replica
   that is ahead answers a lagging commit index only at the moment it
   hears it, and answering is not "work", so the cluster quiesces with the
   repair conversation half-done. Deterministic reproduction: node 0 is a
   LEARNER (never runs a candidate lease of its own) that crash-recovers
   after the voters have committed everything and gone quiet. The only way
   it ever announces its lagging commit index is by relaying a leader
   heartbeat (relays stamp the sender's own commit), so it advances
   exactly one repaired instance per heartbeat the leader happens to send.
   Legacy ([repair_retries = 0]): the leader's brief post-recovery
   activity (re-preparing on the recovery's change flood) stops after a
   few heartbeats, the echo loop dies, and the learner is stuck with a
   permanently short log — forever, since answering repairs was never
   "work". The fix: an unfinished repair IS work, with a bounded
   exponential-backoff re-answer schedule whose budget resets whenever the
   straggler's commit moves — the leader keeps heartbeating, every
   heartbeat lets the learner relay/re-announce, and the loop runs to
   convergence. *)

let learner_restart_after_quiescence ~repair_retries =
  let n = 3 and cmds = 30 in
  Workload.run ~repair_retries ~members:[ 1; 2 ]
    ~faults:
      [
        Fault.Crash { node = 0; at = 10 };
        Fault.Recover { node = 0; at = 1_500 };
      ]
    ~topology:(Amac.Topology.clique n)
    ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 17) ~fack:2)
    ~seed:23 ~cmds
    ~mode:(Workload.Open_loop { mean_gap = 5 })
    ()

let test_repair_regression () =
  (* Legacy behavior: safe, but the restarted learner never recovers the
     log. *)
  let legacy = learner_restart_after_quiescence ~repair_retries:0 in
  check_clean "repair legacy (retries=0)" legacy;
  Alcotest.(check bool)
    (Printf.sprintf
       "legacy stalls: restarter stuck at commit %d < cluster %d"
       legacy.commit_index_min legacy.commit_index_max)
    true
    (legacy.commit_index_min < legacy.commit_index_max);
  (* With the bounded retry schedule the same run converges. *)
  let fixed = learner_restart_after_quiescence ~repair_retries:8 in
  check_clean "repair fixed (retries=8)" fixed;
  Alcotest.(check int) "fixed converges: all replicas at the same commit"
    fixed.commit_index_max fixed.commit_index_min;
  Alcotest.(check bool) "fixed covers the full log" true
    (fixed.commit_index_min >= fixed.committed)

(* ------------------------------------------------------------------ *)
(* Tentpole: log compaction + snapshot transfer. *)

let test_compaction_truncates_and_transfers () =
  let n = 4 and cmds = 40 in
  let r =
    Workload.run ~compact_every:10
      ~faults:
        [
          Fault.Crash { node = 0; at = 200 };
          Fault.Recover { node = 0; at = 2_000 };
        ]
      ~topology:(Amac.Topology.clique n)
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 31) ~fack:2)
      ~seed:47 ~cmds
      ~mode:(Workload.Open_loop { mean_gap = 8 })
      ()
  in
  check_clean "compaction + transfer" r;
  Alcotest.(check bool) "snapshots were taken" true (r.snapshots_taken > 0);
  Alcotest.(check bool)
    (Printf.sprintf "restarter installed a snapshot (installed=%d)"
       r.snapshots_installed)
    true
    (r.snapshots_installed > 0);
  Alcotest.(check int) "converged" r.commit_index_max r.commit_index_min;
  let h = r.handle in
  List.iter
    (fun node ->
      match Smr.snapshot h node with
      | Some s ->
          Alcotest.(check bool)
            (Printf.sprintf "node %d: log truncated below floor %d" node
               s.Smr.floor)
            true
            (List.for_all (fun (i, _) -> i >= s.Smr.floor) (Smr.log h node))
      | None -> ())
    (Smr.nodes h);
  (* Exactly-once apply ACROSS the snapshot install: every replica applied
     the identical command sequence, snapshot-inherited prefix included. *)
  let reference = Smr.applied h (List.hd (Smr.nodes h)) in
  List.iter
    (fun node ->
      Alcotest.(check (list int))
        (Printf.sprintf "node %d applied the same sequence" node)
        reference (Smr.applied h node))
    (Smr.nodes h)

(* ------------------------------------------------------------------ *)
(* Tentpole: joint-consensus membership reconfiguration. *)

let test_reconfig_scale_up () =
  let n = 5 and cmds = 30 in
  let r =
    Workload.run ~members:[ 0; 1; 2 ]
      ~reconfigs:[ (0, 300, [ 0; 1; 2; 3; 4 ]) ]
      ~topology:(Amac.Topology.clique n)
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 53) ~fack:2)
      ~seed:59 ~cmds
      ~mode:(Workload.Open_loop { mean_gap = 15 })
      ()
  in
  check_clean "scale-up 3->5" r;
  Alcotest.(check int) "all commands committed" r.submitted r.committed;
  Alcotest.(check int) "every replica completed the reconfiguration" 1
    r.epoch_min;
  Alcotest.(check int) "exactly one epoch" 1 r.epoch_max;
  let h = r.handle in
  List.iter
    (fun node ->
      Alcotest.(check (list int))
        (Printf.sprintf "node %d adopted the new membership" node)
        [ 0; 1; 2; 3; 4 ] (Smr.members h node);
      Alcotest.(check bool)
        (Printf.sprintf "node %d left the transition" node)
        true
        (Smr.joint h node = None))
    (Smr.nodes h);
  Alcotest.(check int) "converged" r.commit_index_max r.commit_index_min

let test_reconfig_scale_down_with_learner_tail () =
  (* 5 -> 3: the removed replicas (including the old leader, the largest
     id) become learners — they keep applying and repairing but carry no
     vote and never lead. *)
  let n = 5 and cmds = 30 in
  let r =
    Workload.run
      ~reconfigs:[ (1, 300, [ 0; 1; 2 ]) ]
      ~topology:(Amac.Topology.clique n)
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 61) ~fack:2)
      ~seed:67 ~cmds
      ~mode:(Workload.Open_loop { mean_gap = 15 })
      ()
  in
  check_clean "scale-down 5->3" r;
  Alcotest.(check int) "all commands committed" r.submitted r.committed;
  Alcotest.(check int) "every replica completed the reconfiguration" 1
    r.epoch_min;
  Alcotest.(check int) "converged (learners repaired too)"
    r.commit_index_max r.commit_index_min;
  let h = r.handle in
  List.iter
    (fun node ->
      Alcotest.(check (list int))
        (Printf.sprintf "node %d sees members {0,1,2}" node)
        [ 0; 1; 2 ] (Smr.members h node))
    (Smr.nodes h)

(* Review regression: a learner whose id exceeds every voter must not
   elect ITSELF when it suspects the leader (it used to: Fd.candidate
   folded from base:me without the eligibility check, and nothing ever
   re-adopted a real leader with a smaller id — the learner heartbeated
   and re-prepared as a phantom leader forever). Voters {0,1,2} with
   learners 3 and 4 awaiting a scale-up that never comes; crashing leader
   2 forces every survivor — learners included — through re-election. *)
let test_learner_never_self_elects () =
  let n = 5 and cmds = 20 in
  let r =
    Workload.run ~members:[ 0; 1; 2 ]
      ~faults:[ Fault.Crash { node = 2; at = 100 } ]
      ~topology:(Amac.Topology.clique n)
      ~scheduler:(Amac.Scheduler.random (Amac.Rng.create 71) ~fack:2)
      ~seed:73 ~cmds
      ~mode:(Workload.Open_loop { mean_gap = 8 })
      ()
  in
  check_clean "learner election" r;
  Alcotest.(check bool) "made progress past the crash" true (r.committed > 0);
  let h = r.handle in
  List.iter
    (fun node ->
      let omega = Smr.leader h node in
      if node >= 3 then
        Alcotest.(check bool)
          (Printf.sprintf "learner %d's omega %d is not itself" node omega)
          true (omega <> node);
      if node <> 2 then
        Alcotest.(check bool)
          (Printf.sprintf "node %d's omega %d is a voter" node omega)
          true
          (List.mem omega (Smr.members h node)))
    (Smr.nodes h)

(* Review regression: a joint that commits while another transition is
   already open used to be consumed and silently dropped — the requested
   membership change just never happened. Now it is re-minted under a
   fresh (deterministic, replica-agreed) uid and re-proposed once the open
   transition closes: BOTH overlapping reconfigurations must eventually
   take effect, back to back. *)
let test_overlapping_reconfigs_both_apply () =
  let n = 5 and cmds = 20 in
  let r =
    Workload.run ~members:[ 0; 1; 2 ]
      ~reconfigs:[ (0, 200, [ 0; 1; 2; 3 ]); (0, 200, [ 0; 1; 2; 3; 4 ]) ]
      ~topology:(Amac.Topology.clique n)
      ~scheduler:Amac.Scheduler.synchronous ~seed:79 ~cmds
      ~mode:(Workload.Open_loop { mean_gap = 10 })
      ()
  in
  check_clean "overlapping reconfigs" r;
  let h = r.handle in
  let superseded =
    List.fold_left
      (fun acc node -> acc + (Smr.lifecycle h node).Smr.reconfigs_superseded)
      0 (Smr.nodes h)
  in
  Alcotest.(check bool)
    (Printf.sprintf "the second joint was superseded (count=%d)" superseded)
    true (superseded > 0);
  Alcotest.(check int) "both transitions completed everywhere" 2 r.epoch_min;
  Alcotest.(check int) "no spurious extra epochs" 2 r.epoch_max;
  List.iter
    (fun node ->
      Alcotest.(check (list int))
        (Printf.sprintf "node %d ended on the second membership" node)
        [ 0; 1; 2; 3; 4 ] (Smr.members h node);
      Alcotest.(check bool)
        (Printf.sprintf "node %d left the transition" node)
        true
        (Smr.joint h node = None))
    (Smr.nodes h);
  Alcotest.(check int) "all commands still committed" r.submitted r.committed;
  Alcotest.(check int) "converged" r.commit_index_max r.commit_index_min

(* Review regression (vote/quorum configuration mismatch): quorum tallies
   used to sum votes self-weighed under the RESPONDER's configuration but
   check them against the PROPOSER's — after a scale-down, a post-final
   leader plus lagging pre-joint voters could "choose" a value no new-config
   quorum ever accepted (log disagreement under message loss alone).
   Votes now carry a configuration tag and mismatches are discarded. The
   seeded lifecycle fuzz draws reconfigurations to arbitrary subsets,
   aggressive compaction, crash/recovery and loss windows — the schedule
   family of the original finding — and must stay violation-free. *)
let test_lifecycle_fuzz_smoke () =
  let campaign =
    Smr_fuzz.campaign
      { Smr_fuzz.default with cmds = 12; max_time = 200_000; lifecycle = true }
  in
  let outcome = Mcheck.Campaign.run campaign ~iterations:20 ~seed:4242 in
  (match outcome.counterexample with
  | None -> ()
  | Some cx -> Alcotest.failf "lifecycle fuzz failure:@.%a" campaign.pp cx);
  Alcotest.(check int) "all iterations ran" 20 outcome.iterations_run

let test_reconfig_cmd_structure () =
  let _alg, h = Smr.make () in
  let joint = Smr.reconfig_cmd h ~members:[ 2; 0; 1 ] in
  Alcotest.(check bool) "joint bit set" true (Smr.is_joint_reconfig joint);
  Alcotest.(check bool) "is a reconfig" true (Smr.is_reconfig joint);
  Alcotest.(check (list int))
    "members round-trip sorted" [ 0; 1; 2 ]
    (Smr.reconfig_members joint);
  Alcotest.(check bool) "registered" true (Smr.was_reconfig h joint);
  (* Same membership, distinct uid: repeated reconfigs stay distinct. *)
  let joint2 = Smr.reconfig_cmd h ~members:[ 0; 1; 2 ] in
  Alcotest.(check bool) "distinct uid per registration" true (joint <> joint2);
  Alcotest.check_raises "client commands with reconfig bits are rejected"
    (Invalid_argument "Smr.submit: use reconfigure for membership changes")
    (fun () -> Smr.submit h ~node:0 ~cmd:joint)

(* ------------------------------------------------------------------ *)
(* Checker negative tests: prove Smr_checker actually FLAGS each
   lifecycle violation class, by feeding it hand-built views. A checker
   that silently passes divergent states is worse than no checker. *)

let view ?(log = []) ?(commit = 0) ?(applied = []) ?(floor = 0) ?(snap = [])
    ?(configs = []) ?(epoch = 0) node =
  {
    Smr_checker.v_node = node;
    v_log = log;
    v_commit = commit;
    v_applied = applied;
    v_floor = floor;
    v_snap_applied = snap;
    v_configs = configs;
    v_epoch = epoch;
  }

let has_violation label pred violations =
  Alcotest.(check bool)
    (Printf.sprintf "%s is flagged (got: %s)" label
       (String.concat "; " (List.map Smr_checker.to_string violations)))
    true
    (List.exists pred violations)

let test_checker_flags_epoch_divergence () =
  (* Two replicas committed DIFFERENT reconfigurations at the same
     instance — forked quorum rules. The log entries are already
     compacted away; only the configuration history remembers. *)
  let _alg, h = Smr.make () in
  let c1 = Smr.reconfig_cmd h ~members:[ 0; 1 ] in
  let c2 = Smr.reconfig_cmd h ~members:[ 0; 1; 2 ] in
  let submitted = Smr.was_reconfig h in
  let views =
    [
      view 0 ~configs:[ (3, c1) ] ~epoch:1;
      view 1 ~configs:[ (3, c2) ] ~epoch:1;
    ]
  in
  has_violation "epoch divergence"
    (function Smr_checker.Epoch_divergence { inst = 3; _ } -> true | _ -> false)
    (Smr_checker.check_views ~submitted views);
  (* Same reconfig at the same instance: clean. *)
  Alcotest.(check (list string))
    "agreeing configs are clean" []
    (List.map Smr_checker.to_string
       (Smr_checker.check_views ~submitted
          [ view 0 ~configs:[ (3, c1) ] ~epoch:1;
            view 1 ~configs:[ (3, c1) ] ~epoch:1 ]))

let test_checker_flags_snapshot_divergence () =
  (* Node 0's snapshot at floor 2 packages [10;11], but node 1 — whose
     commit index reaches that floor — applied [10;12]: the snapshot is
     not a prefix of its history. *)
  let submitted cmd = List.mem cmd [ 10; 11; 12 ] in
  let views =
    [
      view 0 ~floor:2 ~commit:2 ~snap:[ 10; 11 ] ~applied:[ 10; 11 ];
      view 1 ~log:[ (0, 10); (1, 12) ] ~commit:2 ~applied:[ 10; 12 ];
    ]
  in
  has_violation "snapshot divergence"
    (function
      | Smr_checker.Snapshot_divergence { node = 0; peer = 1; floor = 2 } ->
          true
      | _ -> false)
    (Smr_checker.check_views ~submitted views);
  (* A peer whose commit has not reached the floor makes no claim. *)
  Alcotest.(check (list string))
    "short peer is clean" []
    (List.map Smr_checker.to_string
       (Smr_checker.check_views ~submitted
          [ view 0 ~floor:2 ~commit:2 ~snap:[ 10; 11 ] ~applied:[ 10; 11 ];
            view 1 ~log:[ (0, 10) ] ~commit:1 ~applied:[ 10 ] ]))

let test_checker_flags_duplicate_across_install () =
  (* A replica re-applied a snapshot-covered command through the live
     log — exactly-once across the install is broken. *)
  let submitted cmd = List.mem cmd [ 10; 11 ] in
  let views =
    [
      view 0 ~floor:2 ~commit:3
        ~log:[ (2, 10) ]
        ~snap:[ 10; 11 ]
        ~applied:[ 10; 11; 10 ];
    ]
  in
  has_violation "duplicate apply across snapshot install"
    (function
      | Smr_checker.Duplicate_apply { node = 0; cmd = 10 } -> true
      | _ -> false)
    (Smr_checker.check_views ~submitted views)

let test_checker_flags_hole_above_floor () =
  (* Commit index 4 with floor 2, but instance 2 is unchosen: the
     "contiguous" committed region has a hole in its retained part. *)
  let submitted cmd = cmd = 12 in
  let views = [ view 0 ~floor:2 ~commit:4 ~log:[ (3, 12) ] ~snap:[] ] in
  has_violation "hole below commit"
    (function
      | Smr_checker.Hole_below_commit { node = 0; inst = 2 } -> true
      | _ -> false)
    (Smr_checker.check_views ~submitted views)

let test_checker_flags_snapshot_smuggling () =
  (* A never-submitted command inside a snapshot must be caught even
     though its log entry no longer exists anywhere. *)
  let submitted _ = false in
  let views =
    [ view 0 ~floor:1 ~commit:1 ~snap:[ 99 ] ~applied:[ 99 ] ]
  in
  has_violation "unknown command in snapshot"
    (function
      | Smr_checker.Unknown_command { node = 0; inst = -1; value = 99 } ->
          true
      | _ -> false)
    (Smr_checker.check_views ~submitted views)

let () =
  Alcotest.run "smr"
    [
      ( "log",
        [
          Alcotest.test_case "closed loop, clean network" `Quick
            test_closed_loop_clean;
          Alcotest.test_case "acceptance: bursty + loss windows, >=200" `Quick
            test_acceptance_scenario;
          Alcotest.test_case "acceptance scenario is deterministic" `Quick
            test_acceptance_deterministic;
          Alcotest.test_case "leader crash mid-stream" `Quick test_leader_crash;
          Alcotest.test_case "pipelining window extremes" `Quick
            test_window_extremes;
          Alcotest.test_case "injections to a dead replica are lost" `Quick
            test_injection_to_crashed_node_lost;
          Alcotest.test_case "seeded fuzz smoke" `Quick test_fuzz_smoke;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "straggler repair: retry fixes the stall" `Quick
            test_repair_regression;
          Alcotest.test_case "compaction truncates + snapshot transfers"
            `Quick test_compaction_truncates_and_transfers;
          Alcotest.test_case "reconfig: scale-up 3->5 under load" `Quick
            test_reconfig_scale_up;
          Alcotest.test_case "reconfig: scale-down leaves learners" `Quick
            test_reconfig_scale_down_with_learner_tail;
          Alcotest.test_case "reconfig command structure" `Quick
            test_reconfig_cmd_structure;
          Alcotest.test_case "learner never elects itself" `Quick
            test_learner_never_self_elects;
          Alcotest.test_case "overlapping reconfigs both apply" `Quick
            test_overlapping_reconfigs_both_apply;
          Alcotest.test_case "lifecycle fuzz: reconfig+loss stays safe"
            `Quick test_lifecycle_fuzz_smoke;
        ] );
      ( "checker-negative",
        [
          Alcotest.test_case "flags epoch divergence" `Quick
            test_checker_flags_epoch_divergence;
          Alcotest.test_case "flags snapshot divergence" `Quick
            test_checker_flags_snapshot_divergence;
          Alcotest.test_case "flags duplicate apply across install" `Quick
            test_checker_flags_duplicate_across_install;
          Alcotest.test_case "flags hole above the floor" `Quick
            test_checker_flags_hole_above_floor;
          Alcotest.test_case "flags smuggled snapshot commands" `Quick
            test_checker_flags_snapshot_smuggling;
        ] );
    ]
