(* Sharded multi-group SMR (lib/shard) + the Zipf-keyed open-loop driver
   (Shard_workload), judged by the sharded safety contract.

   Covers: Zipf determinism (same seed = byte-identical key stream) and
   bounds; keyspace routing is a total, deterministic partition that
   covers every group; a clean sharded run batches, commits everything
   and satisfies the checker; batch round-trip (expansion matches the
   per-replica flattened streams, partitioned by group); crash-regime
   safety; the fault plan mirrored into the metrics registry; negative tests proving the checker flags each sharded
   violation class; and byte-identical results under Par --jobs 1 vs 2. *)

let check_clean label (r : Shard_workload.result) =
  Alcotest.(check (list string))
    (label ^ ": no sharded safety violations")
    []
    (List.map Smr_checker.shard_to_string r.violations)

(* ---------- Zipf ---------- *)

let test_zipf_deterministic () =
  let stream seed =
    let z = Zipf.make ~support:128 ~seed () in
    String.concat "," (List.init 1000 (fun _ -> string_of_int (Zipf.next z)))
  in
  Alcotest.(check string)
    "same seed, same key stream" (stream 42) (stream 42);
  Alcotest.(check bool)
    "different seeds diverge" true
    (stream 42 <> stream 43)

let test_zipf_bounds_and_skew () =
  let z = Zipf.make ~theta:0.99 ~support:64 ~seed:7 () in
  let counts = Array.make 65 0 in
  for _ = 1 to 10_000 do
    let k = Zipf.next z in
    Alcotest.(check bool) "key in [1, support]" true (k >= 1 && k <= 64);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool)
    "zipf skew: the hottest key beats the coldest" true
    (counts.(1) > counts.(64));
  (* theta = 0 degenerates to uniform: the head cannot dominate. *)
  let u = Zipf.make ~theta:0.0 ~support:64 ~seed:7 () in
  let ucounts = Array.make 65 0 in
  for _ = 1 to 10_000 do
    let k = Zipf.next u in
    ucounts.(k) <- ucounts.(k) + 1
  done;
  Alcotest.(check bool)
    "uniform: no 3x head dominance" true
    (ucounts.(1) < 3 * ((10_000 / 64) + 1))

(* ---------- routing ---------- *)

let test_routing_partition () =
  let groups = 4 in
  let _alg, h = Shard.make ~groups () in
  let hit = Array.make groups 0 in
  for key = 0 to 999 do
    let g = Shard.route h ~key ~cmd:(key + 1) in
    Alcotest.(check bool) "group in range" true (g >= 0 && g < groups);
    Alcotest.(check int)
      "routing is deterministic" g
      (Shard.route h ~key ~cmd:(key + 1001));
    hit.(g) <- hit.(g) + 1
  done;
  Array.iteri
    (fun g c ->
      Alcotest.(check bool)
        (Printf.sprintf "group %d owns some keys" g)
        true (c > 0))
    hit;
  Alcotest.(check int)
    "partition: every key counted exactly once" 1000
    (Array.fold_left ( + ) 0 hit)

(* ---------- clean sharded runs ---------- *)

let clean_run ?(groups = 2) ?(batch = 3) ?(cmds = 40) ?(seed = 11) () =
  Shard_workload.run
    ~topology:(Amac.Topology.clique 4)
    ~scheduler:Amac.Scheduler.synchronous ~seed ~cmds ~groups ~batch ()

let test_clean_run_commits_all () =
  let cmds = 40 in
  let r = clean_run ~cmds () in
  check_clean "clean sharded run" r;
  Alcotest.(check int) "all commands issued" cmds r.issued;
  Alcotest.(check int) "all commands staged" cmds r.submitted;
  Alcotest.(check int) "all commands committed" cmds r.committed;
  Alcotest.(check int)
    "one latency sample per command" cmds
    (Array.length r.latencies);
  Alcotest.(check bool)
    "batching actually happened" true (r.batches > 0);
  Alcotest.(check bool)
    "every group carried load" true
    (Array.for_all (fun c -> c > 0) r.group_commits);
  Alcotest.(check bool)
    "run quiesced" false r.outcome.Amac.Engine.hit_max_time

let test_batch_round_trip () =
  let r = clean_run ~groups:2 ~batch:4 ~cmds:32 () in
  check_clean "round trip" r;
  let h = r.handle in
  (* Every logged value is a plain command (no bit from 40 up) or a minted
     batch, which expands to 2..4 distinct plain commands. *)
  let ih g = Shard.inner h g in
  let values g =
    List.concat_map
      (fun node -> List.map snd (Smr.view (ih g) node).v_log)
      (Smr.nodes (ih g))
    |> List.sort_uniq compare
  in
  List.iter
    (fun g ->
      List.iter
        (fun value ->
          match Shard.expand h value with
          | None ->
              Alcotest.(check bool)
                "a value the handle cannot expand is a plain command" true
                (value < 1 lsl 40)
          | Some cmds ->
              Alcotest.(check bool)
                "batch size in 2..4" true
                (List.length cmds >= 2 && List.length cmds <= 4);
              Alcotest.(check bool)
                "batch members are plain commands" true
                (List.for_all (fun c -> Shard.expand h c = None) cmds))
        (values g))
    [ 0; 1 ];
  (* The flattened streams partition the command set by group: a node's
     stream for group g contains exactly the committed commands routed
     to g, and the two groups are disjoint. *)
  let stream g = Shard.applied_cmds h ~node:0 ~group:g in
  let s0 = stream 0 and s1 = stream 1 in
  Alcotest.(check int)
    "node 0 applied every command across its groups" r.committed
    (List.length s0 + List.length s1);
  List.iter
    (fun c ->
      Alcotest.(check bool) "groups are disjoint" false (List.mem c s1))
    s0

let test_single_group_degenerates () =
  (* groups = 1, batch = 1: the wrapper adds routing and nothing else —
     still clean, still commits everything. *)
  let cmds = 25 in
  let r = clean_run ~groups:1 ~batch:1 ~cmds () in
  check_clean "single group" r;
  Alcotest.(check int) "all committed" cmds r.committed;
  Alcotest.(check int) "no batches minted at k=1" 0 r.batches

let test_crash_regime () =
  (* A replica crashes mid-stream; the groups it led re-elect and the
     contract still holds (lost staged commands are allowed — safety,
     not completeness). *)
  let r =
    Shard_workload.run
      ~topology:(Amac.Topology.clique 5)
      ~scheduler:(Amac.Scheduler.bursty ~fack:3 ~fast_len:40 ~slow_len:12)
      ~faults:[ Fault.Crash { node = 1; at = 30 } ]
      ~seed:23 ~cmds:60 ~groups:4 ~batch:3 ()
  in
  check_clean "crash regime" r;
  Alcotest.(check bool) "most commands survive" true (r.committed > 30)

let test_fault_plan_recorded () =
  (* Like Workload.run, a run given both a fault plan and a registry
     mirrors the plan into fault_events_total / fault_plan_horizon. *)
  let obs = Obs.Metrics.create () in
  let _ =
    Shard_workload.run
      ~topology:(Amac.Topology.clique 4)
      ~scheduler:Amac.Scheduler.synchronous
      ~faults:[ Fault.Crash { node = 1; at = 30 } ]
      ~obs ~seed:1 ~cmds:20 ~groups:2 ()
  in
  let snapshot = Obs.Metrics.snapshot obs in
  Alcotest.(check int) "one crash event recorded" 1
    (Fixtures.counter_of snapshot ~labels:[ ("kind", "crash") ]
       "fault_events_total");
  Alcotest.(check bool) "plan horizon recorded" true
    (Fixtures.find snapshot "fault_plan_horizon" <> None)

let test_deterministic_replay () =
  let fingerprint (r : Shard_workload.result) =
    Printf.sprintf "c=%d s=%d b=%d lat=[%s] gc=[%s]" r.committed r.submitted
      r.batches
      (String.concat ","
         (List.map string_of_int (Array.to_list r.latencies)))
      (String.concat ","
         (List.map string_of_int (Array.to_list r.group_commits)))
  in
  Alcotest.(check string)
    "same seed, same sharded result"
    (fingerprint (clean_run ~seed:77 ()))
    (fingerprint (clean_run ~seed:77 ()))

(* ---------- checker negative tests ---------- *)

let mk_view node log applied =
  {
    (Fixtures.view node) with
    Smr.v_log = log;
    v_commit = List.length log;
    v_applied = applied;
  }

let all_submitted _ _ = true

let batch_a = (1 lsl 42) lor 1

let expand_fixture v = if v = batch_a then Some [ 10; 11; 12 ] else None

let shard_violations = Alcotest.testable Smr_checker.pp_shard_violation ( = )

let test_negative_group_violation () =
  (* Conflicting chosen values inside one group surface as a wrapped
     per-group violation. *)
  let svs =
    [
      {
        Smr_checker.sv_group = 0;
        sv_views = [ mk_view 0 [ (0, 5) ] [ 5 ]; mk_view 1 [ (0, 6) ] [ 6 ] ];
        sv_applied_cmds = [ (0, [ 5 ]); (1, [ 6 ]) ];
      };
    ]
  in
  match
    Smr_checker.check_shard_views ~submitted:all_submitted
      ~expand:(fun _ -> None) svs
  with
  | Smr_checker.Group_violation
      { group = 0; violation = Smr_checker.Log_disagreement _ }
    :: _ ->
      ()
  | vs ->
      Alcotest.fail
        ("expected a wrapped Log_disagreement, got "
        ^ String.concat "; " (List.map Smr_checker.shard_to_string vs))

let test_negative_cross_group_duplicate () =
  (* The same client command chosen by two different groups. *)
  let svs =
    [
      {
        Smr_checker.sv_group = 0;
        sv_views = [ mk_view 0 [ (0, 5) ] [ 5 ] ];
        sv_applied_cmds = [ (0, [ 5 ]) ];
      };
      {
        Smr_checker.sv_group = 1;
        sv_views = [ mk_view 0 [ (0, 5) ] [ 5 ] ];
        sv_applied_cmds = [ (0, [ 5 ]) ];
      };
    ]
  in
  let vs =
    Smr_checker.check_shard_views ~submitted:all_submitted
      ~expand:(fun _ -> None) svs
  in
  Alcotest.(check (list shard_violations))
    "one cross-group duplicate"
    [
      Smr_checker.Cross_group_duplicate
        { cmd = 5; group_a = 0; node_a = 0; group_b = 1; node_b = 0 };
    ]
    vs

let test_negative_same_replica_duplicate_across_batches () =
  (* One replica applies command 7 twice, hidden inside two distinct
     batch values — invisible to the per-group Duplicate_apply clause,
     which compares batch values. *)
  let b1 = (1 lsl 42) lor 21 and b2 = (1 lsl 42) lor 22 in
  let expand v =
    if v = b1 then Some [ 7; 8 ] else if v = b2 then Some [ 9; 7 ] else None
  in
  let svs =
    [
      {
        Smr_checker.sv_group = 0;
        sv_views = [ mk_view 0 [ (0, b1); (1, b2) ] [ b1; b2 ] ];
        sv_applied_cmds = [ (0, [ 7; 8; 9; 7 ]) ];
      };
    ]
  in
  let vs = Smr_checker.check_shard_views ~submitted:all_submitted ~expand svs in
  Alcotest.(check bool)
    "same-replica duplicate flagged" true
    (List.exists
       (function
         | Smr_checker.Cross_group_duplicate
             { cmd = 7; group_a = 0; group_b = 0; _ } ->
             true
         | _ -> false)
       vs)

let test_negative_batch_split () =
  (* The batch's commands applied out of order. *)
  let svs =
    [
      {
        Smr_checker.sv_group = 0;
        sv_views = [ mk_view 0 [ (0, batch_a) ] [ batch_a ] ];
        sv_applied_cmds = [ (0, [ 10; 12; 11 ]) ];
      };
    ]
  in
  (match
     Smr_checker.check_shard_views ~submitted:all_submitted
       ~expand:expand_fixture svs
   with
  | [ Smr_checker.Batch_split { batch; expected; actual; _ } ] ->
      Alcotest.(check int) "the batch value" batch_a batch;
      Alcotest.(check (list int)) "expected order" [ 10; 11; 12 ] expected;
      Alcotest.(check (list int)) "observed order" [ 10; 12; 11 ] actual
  | vs ->
      Alcotest.fail
        ("expected exactly one Batch_split, got "
        ^ String.concat "; " (List.map Smr_checker.shard_to_string vs)));
  (* A head applied twice: the batch is judged from its FIRST occurrence,
     where it did not land contiguously, even though a later occurrence
     is followed by the whole batch in order. *)
  let svs_twice =
    [
      {
        Smr_checker.sv_group = 0;
        sv_views = [ mk_view 0 [ (0, batch_a) ] [ batch_a ] ];
        sv_applied_cmds = [ (0, [ 10; 9; 10; 11; 12 ]) ];
      };
    ]
  in
  Alcotest.(check (list shard_violations))
    "judged from the first occurrence"
    [
      Smr_checker.Batch_split
        {
          group = 0;
          node = 0;
          batch = batch_a;
          expected = [ 10; 11; 12 ];
          actual = [ 10; 9; 10 ];
        };
    ]
    (List.filter
       (function Smr_checker.Batch_split _ -> true | _ -> false)
       (Smr_checker.check_shard_views ~submitted:all_submitted
          ~expand:expand_fixture svs_twice));
  (* Partial application: a member landed without its batch head. *)
  let svs_partial =
    [
      {
        Smr_checker.sv_group = 0;
        sv_views = [ mk_view 0 [ (0, batch_a) ] [ batch_a ] ];
        sv_applied_cmds = [ (0, [ 11 ]) ];
      };
    ]
  in
  Alcotest.(check bool)
    "partial batch flagged" true
    (List.exists
       (function Smr_checker.Batch_split _ -> true | _ -> false)
       (Smr_checker.check_shard_views ~submitted:all_submitted
          ~expand:expand_fixture svs_partial));
  (* All-or-nothing: a fully absent batch (snapshot-covered) is fine. *)
  let svs_absent =
    [
      {
        Smr_checker.sv_group = 0;
        sv_views = [ mk_view 0 [ (0, batch_a) ] [ batch_a ] ];
        sv_applied_cmds = [ (0, []) ];
      };
    ]
  in
  Alcotest.(check (list shard_violations))
    "absent batch is all-or-nothing clean" []
    (Smr_checker.check_shard_views ~submitted:all_submitted
       ~expand:expand_fixture svs_absent)

(* ---------- parallel determinism ---------- *)

let test_identical_across_jobs () =
  (* The sharded driver is a pure function of its seed: byte-identical
     results whether the harness runs on 1 or 2 domains. *)
  let fingerprint seed =
    let r = clean_run ~groups:4 ~batch:3 ~cmds:30 ~seed () in
    Printf.sprintf "c=%d b=%d lat=[%s] gc=[%s] v=%d" r.committed r.batches
      (String.concat ","
         (List.map string_of_int (Array.to_list r.latencies)))
      (String.concat ","
         (List.map string_of_int (Array.to_list r.group_commits)))
      (List.length r.violations)
  in
  let seeds = [| 3; 5; 8; 13 |] in
  let with_jobs domains =
    Par.with_pool ~domains (fun pool -> Par.map pool fingerprint seeds)
  in
  let one = with_jobs 1 and two = with_jobs 2 in
  Array.iteri
    (fun i a ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d: jobs 1 = jobs 2" seeds.(i))
        a two.(i))
    one

(* ---------- fuzz smoke ---------- *)

let test_fuzz_smoke () =
  let campaign = Shard_fuzz.campaign { Shard_fuzz.default with cmds = 20 } in
  let outcome = Mcheck.Campaign.run campaign ~iterations:12 ~seed:9 in
  (match outcome.counterexample with
  | None -> ()
  | Some cx -> Alcotest.failf "sharded fuzz failure: %a" campaign.pp cx);
  Alcotest.(check int) "all iterations ran" 12 outcome.iterations_run

let () =
  Alcotest.run "shard"
    [
      ( "zipf",
        [
          Alcotest.test_case "deterministic stream" `Quick
            test_zipf_deterministic;
          Alcotest.test_case "bounds and skew" `Quick test_zipf_bounds_and_skew;
        ] );
      ( "routing",
        [
          Alcotest.test_case "partition and cover" `Quick
            test_routing_partition;
        ] );
      ( "runs",
        [
          Alcotest.test_case "clean run commits all" `Quick
            test_clean_run_commits_all;
          Alcotest.test_case "batch round trip" `Quick test_batch_round_trip;
          Alcotest.test_case "single group degenerates" `Quick
            test_single_group_degenerates;
          Alcotest.test_case "crash regime" `Quick test_crash_regime;
          Alcotest.test_case "fault plan recorded in obs" `Quick
            test_fault_plan_recorded;
          Alcotest.test_case "deterministic replay" `Quick
            test_deterministic_replay;
        ] );
      ( "checker",
        [
          Alcotest.test_case "wrapped group violation" `Quick
            test_negative_group_violation;
          Alcotest.test_case "cross-group duplicate" `Quick
            test_negative_cross_group_duplicate;
          Alcotest.test_case "same-replica duplicate across batches" `Quick
            test_negative_same_replica_duplicate_across_batches;
          Alcotest.test_case "batch split" `Quick test_negative_batch_split;
        ] );
      ( "par",
        [
          Alcotest.test_case "identical across jobs 1 vs 2" `Quick
            test_identical_across_jobs;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "smoke" `Quick test_fuzz_smoke ] );
    ]
