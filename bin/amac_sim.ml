(* amac_sim: run any bundled consensus algorithm on any topology under any
   scheduler, and report the verified outcome.

   Examples:
     dune exec bin/amac_sim.exe -- run --algo wpaxos --topo grid:6x6 \
       --sched random --fack 5 --seed 3 --inputs alternating
     dune exec bin/amac_sim.exe -- run --algo two-phase --topo clique:8 \
       --sched max-delay --fack 10 --trace
     dune exec bin/amac_sim.exe -- --metrics --trace-out /tmp/t.chrome.json
     dune exec bin/amac_sim.exe -- validate-trace /tmp/t.chrome.json
     dune exec bin/amac_sim.exe -- lowerbounds

   A malformed flag value stops the command before anything runs: one line
   naming the flag and the value on stderr, exit 2. *)

open Cmdliner

let usage_error msg =
  prerr_endline ("amac_sim: " ^ msg);
  exit 2

(* The spec parsers below raise [Failure] on a malformed spec (a
   non-number where a number belongs, an unknown name) and let through a
   constructor's [Invalid_argument] (a size it refuses); [flag] turns
   either into a usage error. *)
let flag name ~expected parse spec =
  match parse spec with
  | v -> v
  | exception Failure _ ->
      usage_error (Printf.sprintf "%s %S: expected %s" name spec expected)
  | exception Invalid_argument msg ->
      usage_error (Printf.sprintf "%s %S: %s" name spec msg)

(* An integer flag below its least allowed value is a usage error. *)
let at_least name ~min v =
  if v < min then
    usage_error (Printf.sprintf "%s %d: expected an integer >= %d" name v min)

let pair ~sep s =
  match String.split_on_char sep s with
  | [ a; b ] -> (a, b)
  | _ -> failwith "pair"

let int_pair ~sep s =
  let a, b = pair ~sep s in
  (int_of_string a, int_of_string b)

let parse_topology rng spec =
  match pair ~sep:':' spec with
  | "clique", n -> Amac.Topology.clique (int_of_string n)
  | "line", n -> Amac.Topology.line (int_of_string n)
  | "ring", n -> Amac.Topology.ring (int_of_string n)
  | "star", n -> Amac.Topology.star (int_of_string n)
  | "tree", n -> Amac.Topology.binary_tree (int_of_string n)
  | "grid", dims ->
      let width, height = int_pair ~sep:'x' dims in
      Amac.Topology.grid ~width ~height
  | "torus", dims ->
      let width, height = int_pair ~sep:'x' dims in
      Amac.Topology.torus ~width ~height
  | "star-of-lines", dims ->
      let arms, arm_len = int_pair ~sep:'x' dims in
      Amac.Topology.star_of_lines ~arms ~arm_len
  | "random", n ->
      let n = int_of_string n in
      Amac.Topology.random_connected rng ~n ~extra_edges:(n / 3)
  | _ -> failwith "topology"

let parse_scheduler ~fack rng spec =
  at_least "--fack" ~min:1 fack;
  flag "--sched" ~expected:"synchronous fixed max-delay random jittered bursty"
    (function
      | "synchronous" | "sync" -> Amac.Scheduler.synchronous
      | "fixed" -> Amac.Scheduler.fixed ~delay:fack
      | "max-delay" -> Amac.Scheduler.max_delay ~fack
      | "random" -> Amac.Scheduler.random rng ~fack
      | "jittered" ->
          Amac.Scheduler.jittered rng ~fack ~spread:(max 0 ((fack / 2) - 1))
      | "bursty" ->
          Amac.Scheduler.bursty ~fack ~fast_len:(max 1 fack)
            ~slow_len:(max 1 fack)
      | _ -> failwith "scheduler")
    spec

(* The flags every simulated run shares, parsed in a fixed rng-split order
   (topology, then scheduler) so a seed names the same run in every
   subcommand. The returned rng is for whatever the subcommand draws
   next. *)
let setup ~topo ~sched ~fack ~seed =
  let rng = Amac.Rng.create seed in
  let topology =
    flag "--topo"
      ~expected:
        "clique:N line:N ring:N star:N tree:N grid:WxH torus:WxH \
         star-of-lines:AxL random:N"
      (parse_topology (Amac.Rng.split rng))
      topo
  in
  let scheduler = parse_scheduler ~fack (Amac.Rng.split rng) sched in
  (rng, topology, scheduler)

let parse_inputs ~n rng spec =
  let parse = function
    | "alternating" -> Consensus.Runner.inputs_alternating ~n
    | "zeros" -> Consensus.Runner.inputs_all ~n 0
    | "ones" -> Consensus.Runner.inputs_all ~n 1
    | "halves" -> Consensus.Runner.inputs_halves ~n
    | "random" -> Consensus.Runner.inputs_random rng ~n
    | bits when String.length bits = n ->
        Array.init n (fun i ->
            match bits.[i] with '0' -> 0 | '1' -> 1 | _ -> failwith "bit")
    | _ -> failwith "inputs"
  in
  flag "--inputs"
    ~expected:
      (Printf.sprintf "alternating zeros ones halves random or %d bits" n)
    parse spec

(* Existentially package algorithms of different state/message types. *)
type packed = Packed : ('s, 'm) Amac.Algorithm.t * ('m -> string) -> packed

let parse_algorithm =
  flag "--algo"
    ~expected:
      "two-phase two-phase-literal wpaxos wpaxos-noagg flood-gather \
       flood-paxos round-flood ben-or"
    (function
      | "two-phase" ->
          Packed (Consensus.Two_phase.algorithm, Consensus.Two_phase.pp_msg)
      | "two-phase-literal" ->
          Packed (Consensus.Two_phase.literal, Consensus.Two_phase.pp_msg)
      | "wpaxos" -> Packed (Consensus.Wpaxos.make (), Consensus.Wpaxos.pp_msg)
      | "wpaxos-noagg" ->
          Packed
            (Consensus.Wpaxos.make ~aggregate:false (), Consensus.Wpaxos.pp_msg)
      | "flood-gather" ->
          Packed (Consensus.Flood_gather.make (), Consensus.Flood_gather.pp_msg)
      | "flood-paxos" ->
          Packed (Consensus.Flood_paxos.make (), Consensus.Flood_paxos.pp_msg)
      | "round-flood" ->
          Packed
            ( Consensus.Round_flood.make ~target:`Knows_n,
              Consensus.Round_flood.pp_msg )
      | "ben-or" ->
          Packed (Consensus.Ben_or.make ~seed:97 (), Consensus.Ben_or.pp_msg)
      | _ -> failwith "algorithm")

(* Declarative fault events on the command line, one --fault per event:
   crash:N@T recover:N@T loss:U-V@A-B part:N1,N2,..@A-B stutter:N@A-B
   (windows are half-open [A, B), matching Fault's semantics). *)
let parse_fault spec =
  let kind, rest = pair ~sep:':' spec in
  let subject, at = pair ~sep:'@' rest in
  let window () = int_pair ~sep:'-' at in
  match kind with
  | "crash" ->
      Fault.Crash { node = int_of_string subject; at = int_of_string at }
  | "recover" ->
      Fault.Recover { node = int_of_string subject; at = int_of_string at }
  | "loss" ->
      let from_, until = window () in
      Fault.Link_drop { edge = int_pair ~sep:'-' subject; from_; until }
  | "part" ->
      let cut = List.map int_of_string (String.split_on_char ',' subject) in
      let from_, until = window () in
      Fault.Partition { cut; from_; until }
  | "stutter" ->
      let from_, until = window () in
      Fault.Stutter { node = int_of_string subject; from_; until }
  | _ -> failwith "fault"

let parse_faults ~n specs =
  let plan =
    List.map
      (flag "--fault"
         ~expected:
           "crash:N@T recover:N@T loss:U-V@A-B part:N1,N2,..@A-B \
            stutter:N@A-B"
         parse_fault)
      specs
  in
  (try Fault.validate ~n plan
   with Invalid_argument msg -> usage_error ("--fault: " ^ msg));
  plan

(* Both loop sizes are checked whatever the mode, so a bad value is never
   silently ignored because the other mode was selected. *)
let parse_mode ~gap ~clients spec =
  let mode =
    flag "--mode" ~expected:"open or closed"
      (function "open" -> `Open | "closed" -> `Closed | _ -> failwith "mode")
      spec
  in
  at_least "--gap" ~min:1 gap;
  at_least "--clients" ~min:1 clients;
  match mode with
  | `Open -> Workload.Open_loop { mean_gap = gap }
  | `Closed -> Workload.Closed_loop { clients_per_node = clients }

(* The replicated log's own sizes, shared by [smr] and [profile --smr]. *)
let check_log ~cmds ~window =
  at_least "--cmds" ~min:0 cmds;
  at_least "--window" ~min:1 window

let registry metrics = if metrics then Some (Obs.Metrics.create ()) else None

let print_metrics =
  Option.iter (fun reg ->
      Printf.printf "--- metrics ---\n%s--- end metrics ---\n"
        (Obs.Metrics.render (Obs.Metrics.snapshot reg)))

let write_file file s =
  Out_channel.with_open_bin file (fun oc -> output_string oc s)

(* --json / --dag: streamed to the file a chunk at a time,
   newline-terminated, so no document is ever held whole. *)
let write_json file json =
  Out_channel.with_open_bin file (fun oc ->
      Obs.Json.to_channel oc json;
      output_char oc '\n')

(* The export format is picked by extension: .jsonl gets one event per
   line, anything else the Chrome trace_event envelope. *)
let export_for file events =
  if Filename.check_suffix file ".jsonl" then Obs.Span.to_jsonl events
  else Obs.Span.to_chrome events

let parse_for file data =
  if Filename.check_suffix file ".jsonl" then Obs.Span.of_jsonl data
  else Obs.Span.of_chrome data

(* --trace-out: write the run's span trace to the named file. *)
let export_trace trace_out trace =
  Option.iter
    (fun file ->
      let events = Amac.Trace_export.spans trace in
      write_file file (export_for file events);
      Printf.printf "trace: %d span events written to %s\n"
        (List.length events) file)
    trace_out

let print_latencies sorted =
  Printf.printf "commit latency (ticks): ";
  List.iter
    (fun (label, q) ->
      match Workload.quantile sorted ~q with
      | Some l -> Printf.printf "%s=%d " label l
      | None -> Printf.printf "%s=- " label)
    [ ("p50", 0.50); ("p90", 0.90); ("p99", 0.99) ];
  print_newline ()

let run_cmd algo topo sched fack seed inputs_spec trace trace_out metrics
    max_time =
  at_least "--max-time" ~min:0 max_time;
  let rng, topology, scheduler = setup ~topo ~sched ~fack ~seed in
  let n = Amac.Topology.size topology in
  let inputs = parse_inputs ~n (Amac.Rng.split rng) inputs_spec in
  let (Packed (algorithm, pp_msg)) = parse_algorithm algo in
  Printf.printf "algorithm=%s topology=%s (%s) scheduler=%s inputs=%s\n"
    algorithm.Amac.Algorithm.name topo
    (Format.asprintf "%a" Amac.Topology.pp topology)
    scheduler.Amac.Scheduler.name inputs_spec;
  let obs = registry metrics in
  let result =
    Consensus.Runner.run algorithm ~topology ~scheduler ~inputs
      ~record_trace:(trace || trace_out <> None)
      ~pp_msg ~max_time ?obs
  in
  if trace then
    Printf.printf "--- trace ---\n%s--- end trace ---\n"
      (Format.asprintf "%a" Amac.Trace.pp result.outcome.trace);
  Printf.printf "%s\n" (Format.asprintf "%a" Consensus.Checker.pp result.report);
  Printf.printf
    "latency=%s broadcasts=%d deliveries=%d discarded=%d max_ids/msg=%d \
     events=%d\n"
    (Option.fold ~none:"-" ~some:string_of_int result.decision_time)
    result.outcome.broadcasts result.outcome.deliveries
    result.outcome.discarded result.outcome.max_ids_per_message
    result.outcome.events_processed;
  export_trace trace_out result.outcome.trace;
  print_metrics obs;
  if Consensus.Checker.ok result.report then 0 else 1

(* The replicated log: run the SMR algorithm under a generated workload and
   report throughput/latency plus the Smr_checker verdict. Exit status 1 on
   any safety violation. *)
let smr_cmd topo sched fack seed cmds mode window gap clients fault_specs
    metrics trace_out max_time =
  at_least "--max-time" ~min:0 max_time;
  check_log ~cmds ~window;
  let rng, topology, scheduler = setup ~topo ~sched ~fack ~seed in
  let n = Amac.Topology.size topology in
  let faults = parse_faults ~n fault_specs in
  let mode = parse_mode ~gap ~clients mode in
  let obs = registry metrics in
  let result =
    Workload.run ~window ~faults ~max_time
      ~record_trace:(trace_out <> None)
      ?obs ~topology ~scheduler
      ~seed:(Amac.Rng.int rng 1_000_000)
      ~cmds ~mode ()
  in
  Printf.printf
    "smr: topology=%s (n=%d) scheduler=%s window=%d cmds=%d faults=%d\n" topo n
    scheduler.Amac.Scheduler.name window cmds (List.length faults);
  Printf.printf
    "issued=%d submitted=%d committed=%d commit_index=[%d,%d] end_time=%d \
     events=%d broadcasts=%d\n"
    result.Workload.issued result.Workload.submitted result.Workload.committed
    result.Workload.commit_index_min result.Workload.commit_index_max
    result.Workload.outcome.Amac.Engine.end_time
    result.Workload.outcome.Amac.Engine.events_processed
    result.Workload.outcome.Amac.Engine.broadcasts;
  print_latencies result.Workload.latencies;
  export_trace trace_out result.Workload.outcome.Amac.Engine.trace;
  print_metrics obs;
  match result.Workload.violations with
  | [] ->
      Printf.printf
        "smr checker: ok (prefix agreement, no holes, exactly-once apply, \
         validity)\n";
      0
  | vs ->
      List.iter
        (fun v -> Printf.printf "VIOLATION: %s\n" (Smr_checker.to_string v))
        vs;
      1

(* Sharded multi-group SMR: Zipf-keyed open-loop workload over G groups
   multiplexed on one engine run (see Shard / Shard_workload). Exit
   status 1 on any violation of the sharded contract — per-group prefix
   agreement, cross-group exactly-once, batch atomicity. *)
let shard_cmd topo sched fack seed cmds groups batch window gap burst affinity
    zipf fault_specs metrics trace_out max_time =
  at_least "--max-time" ~min:0 max_time;
  check_log ~cmds ~window;
  if groups < 1 || groups > 64 then
    usage_error
      (Printf.sprintf "--groups %d: expected an integer in 1..64" groups);
  at_least "--batch" ~min:1 batch;
  at_least "--gap" ~min:1 gap;
  at_least "--burst" ~min:1 burst;
  if not (zipf >= 0.0) then
    usage_error (Printf.sprintf "--zipf %g: expected a number >= 0" zipf);
  let rng, topology, scheduler = setup ~topo ~sched ~fack ~seed in
  let n = Amac.Topology.size topology in
  let faults = parse_faults ~n fault_specs in
  let obs = registry metrics in
  let result =
    Shard_workload.run ~window ~batch ~mean_gap:gap ~burst ~affinity
      ~theta:zipf ~faults ~max_time
      ~record_trace:(trace_out <> None)
      ?obs ~topology ~scheduler
      ~seed:(Amac.Rng.int rng 1_000_000)
      ~cmds ~groups ()
  in
  Printf.printf
    "shard: topology=%s (n=%d) scheduler=%s groups=%d batch=%d window=%d \
     cmds=%d zipf=%.2f faults=%d\n"
    topo n scheduler.Amac.Scheduler.name groups batch window cmds zipf
    (List.length faults);
  Printf.printf
    "issued=%d submitted=%d committed=%d batches=%d last_commit=%d \
     end_time=%d events=%d broadcasts=%d\n"
    result.Shard_workload.issued result.Shard_workload.submitted
    result.Shard_workload.committed result.Shard_workload.batches
    result.Shard_workload.last_commit
    result.Shard_workload.outcome.Amac.Engine.end_time
    result.Shard_workload.outcome.Amac.Engine.events_processed
    result.Shard_workload.outcome.Amac.Engine.broadcasts;
  Printf.printf "group commit indexes: [%s]\n"
    (String.concat "; "
       (Array.to_list
          (Array.map string_of_int result.Shard_workload.group_commits)));
  print_latencies result.Shard_workload.latencies;
  export_trace trace_out result.Shard_workload.outcome.Amac.Engine.trace;
  print_metrics obs;
  match result.Shard_workload.violations with
  | [] ->
      Printf.printf
        "shard checker: ok (per-group prefix agreement, cross-group \
         exactly-once, batch atomicity)\n";
      0
  | vs ->
      List.iter
        (fun v ->
          Printf.printf "VIOLATION: %s\n" (Smr_checker.shard_to_string v))
        vs;
      1

(* Multi-hop interference runs: a topo_gen topology (seeded grid / RGG /
   clustered mesh), the contention-stretching scheduler wrapper and an
   optional churn or mobility schedule — the paper's O(D*F_ack) latency
   story at generator scale. Deterministic per (topo-seed, seed). Exit
   status 1 on any checker failure when fault-free, or on a safety
   violation when a fault plan is injected (liveness is then
   conditional). *)
let parse_topo_gen_spec ~radius spec =
  match pair ~sep:':' spec with
  | "grid", dims ->
      let width, height = int_pair ~sep:'x' dims in
      Topo_gen.Grid { width; height }
  | "rgg", n ->
      let n = int_of_string n in
      let radius =
        if radius > 0.0 then radius else Topo_gen.connectivity_radius ~n
      in
      Topo_gen.Rgg { n; radius }
  | "cluster", dims ->
      let cxs, extra_bridges = pair ~sep:'+' dims in
      let clusters, size = int_pair ~sep:'x' cxs in
      Topo_gen.Cluster
        { clusters; size; extra_bridges = int_of_string extra_bridges }
  | _ -> failwith "multihop topology"

let multihop_cmd algo topo topo_seed radius sched fack seed inputs_spec alpha
    cap churn mobility delta_start delta_gap fault_specs metrics trace_out
    max_time =
  at_least "--max-time" ~min:0 max_time;
  if churn > 0 && mobility > 0 then
    usage_error
      (Printf.sprintf
         "--churn %d and --mobility %d are exclusive (both schedules are \
          computed against the initial topology)"
         churn mobility);
  at_least "--alpha" ~min:0 alpha;
  Option.iter (at_least "--cap" ~min:0) cap;
  at_least "--churn" ~min:0 churn;
  at_least "--mobility" ~min:0 mobility;
  at_least "--delta-start" ~min:0 delta_start;
  at_least "--delta-gap" ~min:1 delta_gap;
  let rng = Amac.Rng.create seed in
  (* Generating inside [flag]: a size the generator refuses (grid:1x1) is
     a usage error like a malformed spec. *)
  let spec, topology =
    flag "--topo" ~expected:"grid:WxH rgg:N cluster:CxS+B"
      (fun topo ->
        let spec = parse_topo_gen_spec ~radius topo in
        (spec, Topo_gen.generate ~seed:topo_seed spec))
      topo
  in
  let n = Amac.Topology.size topology in
  let diameter = Amac.Topology.diameter topology in
  let scheduler =
    Amac.Scheduler.interference ~alpha ?cap
      (parse_scheduler ~fack (Amac.Rng.split rng) sched)
  in
  let inputs = parse_inputs ~n (Amac.Rng.split rng) inputs_spec in
  let faults = parse_faults ~n fault_specs in
  let topo_deltas =
    if churn > 0 then
      Topo_gen.churn ~seed:topo_seed topology ~events:churn ~start:delta_start
        ~gap:delta_gap
    else if mobility > 0 then
      Topo_gen.mobility ~seed:topo_seed topology ~moves:mobility
        ~start:delta_start ~gap:delta_gap
    else []
  in
  let (Packed (algorithm, pp_msg)) = parse_algorithm algo in
  let obs = registry metrics in
  let result =
    Consensus.Runner.run algorithm ~topology ~scheduler ~inputs ~faults
      ~topo_deltas
      ~record_trace:(trace_out <> None)
      ~pp_msg ~max_time ?obs
  in
  Printf.printf
    "multihop: algorithm=%s topology=%s topo-seed=%d n=%d diameter=%d \
     scheduler=%s deltas=%d faults=%d\n"
    algorithm.Amac.Algorithm.name (Topo_gen.name spec) topo_seed n diameter
    scheduler.Amac.Scheduler.name
    (List.length topo_deltas)
    (List.length faults);
  Printf.printf "%s\n" (Format.asprintf "%a" Consensus.Checker.pp result.report);
  let d = result.Consensus.Runner.degradation in
  Printf.printf "decided=%d/%d latency=%s bound(D*F_ack)=%d\n"
    d.Consensus.Checker.decided_correct d.Consensus.Checker.correct_total
    (Option.fold ~none:"-" ~some:string_of_int result.decision_time)
    (diameter * fack);
  Printf.printf
    "broadcasts=%d deliveries=%d topo_changes=%d events=%d end_time=%d\n"
    result.outcome.broadcasts result.outcome.deliveries
    result.outcome.topo_changes result.outcome.events_processed
    result.outcome.end_time;
  export_trace trace_out result.outcome.trace;
  print_metrics obs;
  if faults = [] then if Consensus.Checker.ok result.report then 0 else 1
  else if Consensus.Checker.safety_violations result.report = [] then 0
  else 1

(* The lifecycle scenario suite: detector, compaction/snapshot-transfer and
   reconfiguration runs under fire (see Workload.Lifecycle). Exit status 1
   if any scenario violates safety or fails to re-achieve liveness. *)
let lifecycle_cmd scenario_name seed fack max_time =
  at_least "--max-time" ~min:0 max_time;
  at_least "--fack" ~min:1 fack;
  let scenarios =
    if scenario_name = "all" then Lifecycle.all
    else
      [
        flag "--scenario"
          ~expected:
            "rolling-restart scale-up crash-reconfig snapshot-restart all"
          (fun name ->
            match Lifecycle.of_name name with
            | Some scenario -> scenario
            | None -> failwith "scenario")
          scenario_name;
      ]
  in
  let failures =
    List.filter_map
      (fun scenario ->
        let o = Lifecycle.run ~seed ~fack ~max_time scenario in
        Printf.printf "%-17s %s  %s\n" (Lifecycle.name scenario)
          (if o.Lifecycle.live then "LIVE" else "STUCK")
          o.Lifecycle.detail;
        List.iter
          (fun v ->
            Printf.printf "  VIOLATION: %s\n" (Smr_checker.to_string v))
          o.Lifecycle.result.Workload.violations;
        if o.Lifecycle.live then None else Some scenario)
      scenarios
  in
  if failures = [] then 0 else 1

(* Profiling: one run with the causal-provenance DAG collected, folded into
   critical paths (consensus mode) and energy/waiting segments, as a
   human-readable report plus a deterministic JSON export (same seed =>
   byte-identical bytes — what the CI observability job diffs). *)

let quantile arr q =
  match Workload.quantile arr ~q with
  | Some v -> Obs.Json.Int v
  | None -> Obs.Json.Null

let quantiles arr =
  Obs.Json.Obj
    [
      ("p50", quantile arr 0.50);
      ("p90", quantile arr 0.90);
      ("p99", quantile arr 0.99);
      ("max", quantile arr 1.0);
    ]

let profile_cmd algo topo sched fack seed inputs_spec smr cmds mode window gap
    clients json_out dag_out max_time =
  at_least "--max-time" ~min:0 max_time;
  check_log ~cmds ~window;
  let rng, topology, scheduler = setup ~topo ~sched ~fack ~seed in
  let n = Amac.Topology.size topology in
  let mode = parse_mode ~gap ~clients mode in
  let provenance = Obs.Provenance.create () in
  let meta_base =
    [
      ("topology", Obs.Json.String topo);
      ("scheduler", Obs.Json.String scheduler.Amac.Scheduler.name);
      ("fack", Obs.Json.Int fack);
      ("seed", Obs.Json.Int seed);
      ("n", Obs.Json.Int n);
    ]
  in
  let outcome, ok, committed, extra, meta =
    if smr then begin
      let result =
        Workload.run ~window ~max_time ~record_trace:true ~provenance
          ~topology ~scheduler
          ~seed:(Amac.Rng.int rng 1_000_000)
          ~cmds ~mode ()
      in
      ( result.Workload.outcome,
        result.Workload.violations = [],
        Some result.Workload.committed,
        [
          ( "commit_latency",
            Obs.Json.Obj
              [
                ("total", quantiles result.Workload.latencies);
                ("queue", quantiles result.Workload.queue_latencies);
                ("replicate", quantiles result.Workload.replicate_latencies);
              ] );
        ],
        ("algorithm", Obs.Json.String "smr")
        :: ("cmds", Obs.Json.Int cmds)
        :: meta_base )
    end
    else begin
      let inputs = parse_inputs ~n (Amac.Rng.split rng) inputs_spec in
      let (Packed (algorithm, pp_msg)) = parse_algorithm algo in
      let result =
        Consensus.Runner.run algorithm ~topology ~scheduler ~inputs
          ~record_trace:true ~provenance ~pp_msg ~max_time
      in
      ( result.Consensus.Runner.outcome,
        Consensus.Checker.ok result.Consensus.Runner.report,
        None,
        [],
        ("algorithm", Obs.Json.String algorithm.Amac.Algorithm.name)
        :: ("inputs", Obs.Json.String inputs_spec)
        :: meta_base )
    end
  in
  let energy =
    Obs.Energy.account ~n ~duration:outcome.Amac.Engine.end_time
      (Amac.Trace_export.spans outcome.Amac.Engine.trace)
  in
  let report =
    Obs.Profile.make ~provenance ?committed ~extra ~meta ~energy ()
  in
  print_string (Obs.Profile.render report);
  (match json_out with
  | None -> ()
  | Some file ->
      write_json file (Obs.Profile.to_json report);
      Printf.printf "profile: JSON report written to %s\n" file);
  (match dag_out with
  | None -> ()
  | Some file ->
      write_json file (Obs.Provenance.to_json provenance);
      Printf.printf "profile: causal DAG (%d vertices) written to %s\n"
        (Obs.Provenance.length provenance)
        file);
  if ok then 0 else 1

(* CI's trace checker: parse the export, re-export, re-parse, and demand
   the same event multiset — the round-trip contract of Obs.Span. *)
let validate_trace_cmd file =
  let data = In_channel.with_open_bin file In_channel.input_all in
  match parse_for file data with
  | exception Failure msg ->
      Printf.eprintf "invalid trace %s: %s\n" file msg;
      1
  | events ->
      let reparsed = parse_for file (export_for file events) in
      if Obs.Span.same_multiset events reparsed then (
        Printf.printf "ok: %s (%d span events, round-trip stable)\n" file
          (List.length events);
        0)
      else (
        Printf.eprintf "round-trip mismatch in %s\n" file;
        1)

let lowerbounds_cmd () =
  let f = Lowerbound.Indist.fig1_demo ~diameter:10 ~n:30 in
  Printf.printf "Thm 3.3 (Fig 1): victim ok on B=%b; violation on A=%b\n"
    f.b_ok f.violated;
  let k = Lowerbound.Indist.kd_demo ~diameter:8 in
  Printf.printf "Thm 3.9 (K_D): victim ok on line=%b; violation on K_D=%b\n"
    k.line_ok k.violated;
  let a =
    Lowerbound.Partition.analyze (Consensus.Wpaxos.make ()) ~diameter:10
      ~fack:4
  in
  Printf.printf
    "Thm 3.10: lower bound %d, earliest cross-influence %d, wPAXOS decided \
     at %d\n"
    a.lower_bound a.endpoint_cross_influence a.last_decision;
  0

let algo_arg =
  Arg.(value & opt string "wpaxos" & info [ "algo"; "a" ] ~doc:"Algorithm")

let topo_arg =
  Arg.(value & opt string "grid:4x4" & info [ "topo"; "t" ] ~doc:"Topology")

let sched_arg =
  Arg.(value & opt string "random" & info [ "sched"; "s" ] ~doc:"Scheduler")

let fack_arg = Arg.(value & opt int 5 & info [ "fack"; "f" ] ~doc:"F_ack bound")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed")

let inputs_arg =
  Arg.(
    value & opt string "alternating"
    & info [ "inputs"; "i" ] ~doc:"Input vector spec")

let trace_arg = Arg.(value & flag & info [ "trace" ] ~doc:"Print full trace")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ]
        ~doc:
          "Write the run's span trace to $(docv); .jsonl gets JSON Lines, \
           anything else Chrome trace_event (opens in Perfetto)"
        ~docv:"FILE")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the run's metrics snapshot (deterministic per seed)")

let max_time_arg =
  Arg.(value & opt int 1_000_000 & info [ "max-time" ] ~doc:"Time cap")

let run_term =
  Term.(
    const run_cmd $ algo_arg $ topo_arg $ sched_arg $ fack_arg $ seed_arg
    $ inputs_arg $ trace_arg $ trace_out_arg $ metrics_arg $ max_time_arg)

let cmds_arg =
  Arg.(value & opt int 100 & info [ "cmds" ] ~doc:"Total client commands")

let mode_arg =
  Arg.(
    value & opt string "closed"
    & info [ "mode" ]
        ~doc:
          "Workload shape: $(b,open) (Poisson arrivals) or $(b,closed) \
           (outstanding=1 clients)")

let window_arg =
  Arg.(value & opt int 4 & info [ "window" ] ~doc:"SMR pipelining window")

let gap_arg =
  Arg.(
    value & opt int 10
    & info [ "gap" ] ~doc:"Open loop: mean inter-arrival gap in ticks")

let clients_arg =
  Arg.(
    value & opt int 1
    & info [ "clients" ] ~doc:"Closed loop: clients per replica")

let fault_arg =
  Arg.(
    value & opt_all string []
    & info [ "fault" ]
        ~doc:
          "Fault event (repeatable): crash:N@T recover:N@T \
           loss:U-V@A-B part:N1,N2,..@A-B stutter:N@A-B"
        ~docv:"SPEC")

let smr_term =
  Term.(
    const smr_cmd $ topo_arg $ sched_arg $ fack_arg $ seed_arg $ cmds_arg
    $ mode_arg $ window_arg $ gap_arg $ clients_arg $ fault_arg $ metrics_arg
    $ trace_out_arg $ max_time_arg)

let groups_arg =
  Arg.(
    value & opt int 2
    & info [ "groups"; "g" ] ~doc:"Number of SMR groups (keyspace shards)")

let batch_arg =
  Arg.(
    value & opt int 4
    & info [ "batch" ]
        ~doc:"Command batching threshold per (node, group); 1 disables")

let burst_arg =
  Arg.(
    value & opt int 1
    & info [ "burst" ] ~doc:"Commands sharing each open-loop arrival")

let affinity_arg =
  Arg.(
    value & flag
    & info [ "affinity" ]
        ~doc:
          "Shard-aware clients: each command lands at a replica of its \
           owning group instead of a uniform node")

let zipf_arg =
  Arg.(
    value & opt float 0.99
    & info [ "zipf" ] ~doc:"Zipf skew theta for the key distribution")

let shard_term =
  Term.(
    const shard_cmd $ topo_arg $ sched_arg $ fack_arg $ seed_arg $ cmds_arg
    $ groups_arg $ batch_arg $ window_arg $ gap_arg $ burst_arg $ affinity_arg
    $ zipf_arg $ fault_arg $ metrics_arg $ trace_out_arg $ max_time_arg)

let topo_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "topo-seed" ]
        ~doc:
          "Topology generator seed (same spec + seed => byte-identical \
           graph)")

let radius_arg =
  Arg.(
    value & opt float 0.0
    & info [ "radius" ]
        ~doc:
          "RGG connection radius; 0 picks the connectivity radius \
           sqrt(3 ln n / n)")

let alpha_arg =
  Arg.(
    value & opt int 1
    & info [ "alpha" ]
        ~doc:
          "Interference strength: each on-air neighbor stretches the ack \
           bound by $(docv) ticks; 0 is the degenerate no-interference mode"
        ~docv:"TICKS")

let cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cap" ]
        ~doc:"Ack-stretch cap in ticks (default 4*F_ack)" ~docv:"TICKS")

let churn_arg =
  Arg.(
    value & opt int 0
    & info [ "churn" ]
        ~doc:"Churn events (alternating edge removals/insertions) to apply")

let mobility_arg =
  Arg.(
    value & opt int 0
    & info [ "mobility" ]
        ~doc:"Node-movement bursts to apply (exclusive with --churn)")

let delta_start_arg =
  Arg.(
    value & opt int 10
    & info [ "delta-start" ] ~doc:"First churn/mobility event time")

let delta_gap_arg =
  Arg.(
    value & opt int 10
    & info [ "delta-gap" ] ~doc:"Gap between churn/mobility events")

let multihop_term =
  Term.(
    const multihop_cmd $ algo_arg $ topo_arg $ topo_seed_arg $ radius_arg
    $ sched_arg $ fack_arg $ seed_arg $ inputs_arg $ alpha_arg $ cap_arg
    $ churn_arg $ mobility_arg $ delta_start_arg $ delta_gap_arg $ fault_arg
    $ metrics_arg $ trace_out_arg $ max_time_arg)

let smr_flag_arg =
  Arg.(
    value & flag
    & info [ "smr" ]
        ~doc:
          "Profile the replicated log under a workload (energy + commit \
           latency breakdown) instead of a single-decree consensus run")

let json_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ]
        ~doc:
          "Write the deterministic JSON report to $(docv) (same seed => \
           byte-identical bytes)"
        ~docv:"FILE")

let dag_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "dag" ] ~doc:"Write the causal provenance DAG JSON to $(docv)"
        ~docv:"FILE")

let profile_term =
  Term.(
    const profile_cmd $ algo_arg $ topo_arg $ sched_arg $ fack_arg $ seed_arg
    $ inputs_arg $ smr_flag_arg $ cmds_arg $ mode_arg $ window_arg $ gap_arg
    $ clients_arg $ json_out_arg $ dag_out_arg $ max_time_arg)

let scenario_arg =
  Arg.(
    value & opt string "all"
    & info [ "scenario" ]
        ~doc:
          "Lifecycle scenario: $(b,rolling-restart), $(b,scale-up), \
           $(b,crash-reconfig), $(b,snapshot-restart) or $(b,all)")

let validate_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Trace export to validate")

let cmds =
  Cmd.group ~default:run_term
    (Cmd.info "amac_sim" ~doc:"Abstract MAC layer consensus simulator")
    [
      Cmd.v
        (Cmd.info "run" ~doc:"Run one algorithm on one topology and verify")
        run_term;
      Cmd.v
        (Cmd.info "smr"
           ~doc:
             "Run the replicated log under a client workload and verify it \
              with the SMR checker")
        smr_term;
      Cmd.v
        (Cmd.info "shard"
           ~doc:
             "Run sharded multi-group SMR (keyspace partitioned across \
              --groups batching --batch commands per Propose) under a \
              Zipf-keyed open-loop workload and verify the sharded \
              contract: per-group prefix agreement, cross-group \
              exactly-once, batch atomicity")
        shard_term;
      Cmd.v
        (Cmd.info "multihop"
           ~doc:
             "Run on a generated multi-hop topology (grid:WxH rgg:N \
              cluster:CxS+B) under the interference-aware scheduler \
              (--alpha/--cap ack stretch per on-air neighbor), with \
              optional --churn/--mobility delta schedules and fault \
              events, and verify against the O(D*F_ack) story")
        multihop_term;
      Cmd.v
        (Cmd.info "lifecycle"
           ~doc:
             "Run the production-lifecycle scenario suite (failure \
              detection, compaction + snapshot transfer, membership \
              reconfiguration) and verify safety + re-achieved liveness")
        Term.(
          const lifecycle_cmd $ scenario_arg $ seed_arg $ fack_arg
          $ max_time_arg);
      Cmd.v
        (Cmd.info "profile"
           ~doc:
             "Run once with causal provenance collected and report critical \
              paths (hops vs the O(D*F_ack) bound, per-edge latency, leader \
              attribution) and energy/waiting accounting; --json emits a \
              deterministic report, --smr profiles the replicated log")
        profile_term;
      Cmd.v
        (Cmd.info "validate-trace"
           ~doc:"Check a --trace-out export parses and round-trips")
        Term.(const validate_trace_cmd $ validate_file_arg);
      Cmd.v
        (Cmd.info "lowerbounds" ~doc:"Run the three lower-bound demos")
        Term.(const lowerbounds_cmd $ const ());
    ]

let () = exit (Cmd.eval' cmds)
