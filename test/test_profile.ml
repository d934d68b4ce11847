(* Critical-path extraction and energy accounting (PR 8): the telescoping
   path-sum identity, hops growing with line diameter (the O(D·F_ack)
   comparison B12 gates), bottleneck sanity, the per-node segment identity
   active + idle + crashed = duration (including under crash/recovery),
   and profile JSON determinism. *)

module P = Obs.Provenance

(* Fixed ack delay for the clean O(D·F_ack) geometry; [seed] feeds the
   random scheduler in the runs that want schedule variety. *)
let run_line ?faults ?(random = false) ~seed ~n () =
  let prov = P.create () in
  let scheduler =
    if random then Amac.Scheduler.random (Amac.Rng.create seed) ~fack:3
    else Amac.Scheduler.fixed ~delay:3
  in
  let result =
    Consensus.Runner.run ?faults (Consensus.Wpaxos.make ())
      ~topology:(Amac.Topology.line n)
      ~scheduler
      ~inputs:(Array.init n (fun i -> i mod 2))
      ~record_trace:true ~provenance:prov
  in
  (prov, result.Consensus.Runner.outcome)

(* ---------- critical paths ---------- *)

let test_path_sum_identity () =
  let prov, _ = run_line ~seed:3 ~n:5 () in
  let paths = Obs.Critpath.paths prov in
  Alcotest.(check bool) "at least one decide path" true (paths <> []);
  List.iter
    (fun (p : Obs.Critpath.path) ->
      let edge_sum =
        List.fold_left
          (fun acc (e : Obs.Critpath.edge) -> acc + e.Obs.Critpath.e_latency)
          0 p.Obs.Critpath.edges
      in
      Alcotest.(check int)
        (Printf.sprintf "node %d: edges telescope to total" p.Obs.Critpath.node)
        p.Obs.Critpath.total edge_sum;
      Alcotest.(check int)
        (Printf.sprintf "node %d: total = decided_at - root_time"
           p.Obs.Critpath.node)
        (p.Obs.Critpath.decided_at - p.Obs.Critpath.root_time)
        p.Obs.Critpath.total;
      let share_sum =
        List.fold_left (fun acc (_, s) -> acc + s) 0 p.Obs.Critpath.shares
      in
      Alcotest.(check int)
        (Printf.sprintf "node %d: shares partition the total"
           p.Obs.Critpath.node)
        p.Obs.Critpath.total share_sum)
    paths

let max_hops prov =
  List.fold_left
    (fun acc (p : Obs.Critpath.path) -> max acc p.Obs.Critpath.hops)
    0
    (Obs.Critpath.paths prov)

let test_hops_grow_with_diameter () =
  (* The acceptance criterion behind bench B12: on a line, information
     must relay hop by hop, so wPAXOS decide paths lengthen with the
     diameter — strictly, at every doubling. *)
  let h5 = max_hops (fst (run_line ~seed:3 ~n:5 ()))
  and h9 = max_hops (fst (run_line ~seed:3 ~n:9 ()))
  and h17 = max_hops (fst (run_line ~seed:3 ~n:17 ())) in
  Alcotest.(check bool)
    (Printf.sprintf "hops strictly increase: %d < %d < %d" h5 h9 h17)
    true
    (h5 > 0 && h5 < h9 && h9 < h17);
  (* ...and linearly in the increments (the paths carry a constant setup
     offset, so compare slopes, not ratios): doubling the diameter step
     must double the hop growth, within a small slack. *)
  let d1 = h9 - h5 and d2 = h17 - h9 in
  Alcotest.(check bool)
    (Printf.sprintf "hop growth doubles with the diameter step: %d vs 2*%d" d2
       d1)
    true
    (d2 >= (2 * d1) - 4 && d2 <= (2 * d1) + 4)

let test_bottleneck_sane () =
  let prov, _ = run_line ~seed:3 ~n:5 () in
  List.iter
    (fun (p : Obs.Critpath.path) ->
      match Obs.Critpath.bottleneck p with
      | None -> Alcotest.fail "non-degenerate path has a bottleneck"
      | Some (node, frac) ->
          Alcotest.(check bool) "bottleneck node on the path" true
            (List.mem_assoc node p.Obs.Critpath.shares);
          Alcotest.(check bool)
            (Printf.sprintf "fraction %f in (0, 1]" frac)
            true
            (frac > 0.0 && frac <= 1.0))
    (Obs.Critpath.paths prov)

(* ---------- energy ---------- *)

let energy_of ?faults ~seed ~n () =
  let _, outcome = run_line ?faults ~seed ~n () in
  let spans = Amac.Trace_export.spans outcome.Amac.Engine.trace in
  ( Obs.Energy.account ~n ~duration:outcome.Amac.Engine.end_time spans,
    outcome )

let check_segment_identity (e : Obs.Energy.t) =
  Array.iteri
    (fun i (s : Obs.Energy.segments) ->
      Alcotest.(check int)
        (Printf.sprintf "node %d: active+idle+crashed = duration" i)
        e.Obs.Energy.duration
        (s.Obs.Energy.active + s.Obs.Energy.idle + s.Obs.Energy.crashed);
      Alcotest.(check bool)
        (Printf.sprintf "node %d: segments non-negative" i)
        true
        (s.Obs.Energy.active >= 0 && s.Obs.Energy.idle >= 0
       && s.Obs.Energy.crashed >= 0))
    e.Obs.Energy.per_node

let test_energy_identity () =
  let e, _ = energy_of ~seed:3 ~n:5 () in
  check_segment_identity e;
  let f = Obs.Energy.waiting_fraction e in
  Alcotest.(check bool) "waiting fraction in [0,1]" true (f >= 0.0 && f <= 1.0)

let test_energy_identity_crash_recovery () =
  let faults =
    [ Fault.Crash { node = 2; at = 10 }; Fault.Recover { node = 2; at = 50 } ]
  in
  let e, outcome = energy_of ~faults ~seed:7 ~n:5 () in
  check_segment_identity e;
  Alcotest.(check bool) "fixture recovered" true
    (outcome.Amac.Engine.incarnations.(2) = 1);
  let crashed = e.Obs.Energy.per_node.(2).Obs.Energy.crashed in
  Alcotest.(check int) "crashed window measured exactly" 40 crashed;
  Array.iteri
    (fun i (s : Obs.Energy.segments) ->
      if i <> 2 then
        Alcotest.(check int)
          (Printf.sprintf "node %d never crashed" i)
          0 s.Obs.Energy.crashed)
    e.Obs.Energy.per_node

let test_energy_unclosed_crash () =
  (* A crash with no recovery: crashed runs to the end of the run, and the
     identity still holds. *)
  let faults = [ Fault.Crash { node = 4; at = 15 } ] in
  let e, outcome = energy_of ~faults ~seed:5 ~n:5 () in
  check_segment_identity e;
  Alcotest.(check int) "crashed till the end"
    (e.Obs.Energy.duration - 15)
    e.Obs.Energy.per_node.(4).Obs.Energy.crashed;
  Alcotest.(check bool) "fixture stayed down" true
    outcome.Amac.Engine.crashed.(4)

(* ---------- profile export determinism ---------- *)

let profile_bytes seed =
  let prov, outcome = run_line ~random:true ~seed ~n:5 () in
  let spans = Amac.Trace_export.spans outcome.Amac.Engine.trace in
  let energy =
    Obs.Energy.account ~n:5 ~duration:outcome.Amac.Engine.end_time spans
  in
  let profile =
    Obs.Profile.make ~provenance:prov
      ~meta:[ ("seed", Obs.Json.Int seed); ("n", Obs.Json.Int 5) ]
      ~energy ()
  in
  Obs.Json.to_string (Obs.Profile.to_json profile)

let test_profile_deterministic () =
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: byte-identical" seed)
        true
        (String.equal (profile_bytes seed) (profile_bytes seed)))
    [ 1; 9; 42 ]

(* costbench's wpaxos_grid400_profile input: grid:20x20 (Topo_gen seed 1)
   under fixed(3)+sinr(alpha=2), random inputs from seed 42, with
   provenance, metrics and a trace recorded. Run once, shared by the
   digest cases below. *)
let grid_run =
  lazy
    (let topology =
       Topo_gen.generate ~seed:1 (Topo_gen.Grid { width = 20; height = 20 })
     in
     let n = Amac.Topology.size topology in
     let inputs = Consensus.Runner.inputs_random (Amac.Rng.create 42) ~n in
     let provenance = P.create () and obs = Obs.Metrics.create () in
     let outcome =
       Amac.Engine.run (Consensus.Wpaxos.make ()) ~topology
         ~scheduler:
           (Amac.Scheduler.interference ~alpha:2
              (Amac.Scheduler.fixed ~delay:3))
         ~inputs ~provenance ~obs ~record_trace:true
         ~pp_msg:Consensus.Wpaxos.pp_msg
     in
     (n, provenance, obs, outcome))

let digest bytes =
  Printf.sprintf "%s %d" (Digest.to_hex (Digest.string bytes))
    (String.length bytes)

(* The three exports the pipeline renders, pinned by MD5 and length, so a
   renderer or exporter change that moves a single byte shows here. *)
let test_grid_export_digests () =
  let n, provenance, obs, outcome = Lazy.force grid_run in
  let spans = Amac.Trace_export.spans outcome.Amac.Engine.trace in
  let energy =
    Obs.Energy.account ~n ~duration:outcome.Amac.Engine.end_time spans
  in
  let profile =
    Obs.Profile.make ~provenance
      ~meta:[ ("topology", Obs.Json.String "grid:20x20") ]
      ~energy ()
  in
  List.iter
    (fun (name, expected, json) ->
      Alcotest.(check string) name expected (digest (Obs.Json.to_string json)))
    [
      ( "profile",
        "03caea7680e5c5eae9dd396517216567 10155021",
        Obs.Profile.to_json profile );
      ( "DAG",
        "df621d945fee0580f8dfbe0e2d78ca24 28530485",
        P.to_json provenance );
      ( "metrics snapshot",
        "a50529314c4b54861c2d94044ddcfdec 767758",
        Obs.Metrics.to_json (Obs.Metrics.snapshot obs) );
    ]

(* The span list itself, as JSONL: every delivery carries its provenance
   cause here. *)
let test_grid_span_digest () =
  let _, _, _, outcome = Lazy.force grid_run in
  Alcotest.(check string) "spans" "1c4a094fe17f4bf3174e23edc15559e9 64150008"
    (digest
       (Obs.Span.to_jsonl (Amac.Trace_export.spans outcome.Amac.Engine.trace)))

let has_instant name spans =
  List.exists
    (function
      | Obs.Span.Instant { name = n; _ } -> n = name | Obs.Span.Complete _ -> false)
    spans

(* A faulted run without a DAG: node 2 crashes mid-broadcast and recovers,
   link (0,1) drops deliveries, and every delivery's cause is -1 (so it has
   no "cause" arg). *)
let test_faulted_span_digest () =
  let faults =
    [
      Fault.Crash { node = 2; at = 10 };
      Fault.Recover { node = 2; at = 50 };
      Fault.Link_drop { edge = (0, 1); from_ = 0; until = 30 };
    ]
  in
  let result =
    Consensus.Runner.run ~faults (Consensus.Wpaxos.make ())
      ~topology:(Amac.Topology.line 5)
      ~scheduler:(Amac.Scheduler.fixed ~delay:3)
      ~inputs:(Array.init 5 (fun i -> i mod 2))
      ~record_trace:true ~pp_msg:Consensus.Wpaxos.pp_msg
  in
  let spans =
    Amac.Trace_export.spans result.Consensus.Runner.outcome.Amac.Engine.trace
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " instant") true (has_instant name spans))
    [ "crash"; "recover"; "link_drop"; "deliver" ];
  Alcotest.(check bool) "an unacked broadcast" true
    (List.exists
       (function
         | Obs.Span.Complete { args; _ } -> List.mem_assoc "unacked" args
         | Obs.Span.Instant _ -> false)
       spans);
  Alcotest.(check bool) "no delivery names a cause" true
    (List.for_all
       (function
         | Obs.Span.Instant { args; _ } -> not (List.mem_assoc "cause" args)
         | Obs.Span.Complete _ -> true)
       spans);
  Alcotest.(check string) "spans" "5b2f9974274c3445a5707d34613c724a 59091"
    (digest (Obs.Span.to_jsonl spans))

let () =
  Alcotest.run "profile"
    [
      ( "critical paths",
        [
          Alcotest.test_case "edge latencies telescope" `Quick
            test_path_sum_identity;
          Alcotest.test_case "hops grow with diameter" `Quick
            test_hops_grow_with_diameter;
          Alcotest.test_case "bottleneck is sane" `Quick test_bottleneck_sane;
        ] );
      ( "energy",
        [
          Alcotest.test_case "segment identity" `Quick test_energy_identity;
          Alcotest.test_case "segment identity under crash-recovery" `Quick
            test_energy_identity_crash_recovery;
          Alcotest.test_case "unclosed crash window" `Quick
            test_energy_unclosed_crash;
        ] );
      ( "export",
        [
          Alcotest.test_case "profile JSON deterministic" `Quick
            test_profile_deterministic;
          Alcotest.test_case "grid:20x20 export digests" `Quick
            test_grid_export_digests;
          Alcotest.test_case "grid:20x20 span digest" `Quick
            test_grid_span_digest;
          Alcotest.test_case "faulted span digest" `Quick
            test_faulted_span_digest;
        ] );
    ]
