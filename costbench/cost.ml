(* B15 "cost of a run": one execution of one benchmark workload, reported
   as a single JSON line on stdout.

     cost.exe WORKLOAD [--seed S] [--trace] [--small]

   run.py, next to this file, starts one such process per repeat and takes
   medians across them, so every repeat pays its own heap growth and page
   faults. The seed drives the wPAXOS input vectors and the SMR/shard client
   schedules; the code under test only receives the generated inputs.

   With --trace, the closures the engine and the explorer call are wrapped
   in timers from the outside: algorithm handlers and hooks, the
   scheduler's plan and contention stretch, and the injection handler. The
   checker and obs calls are timed directly. Nothing under lib/ reads a
   clock. A layer's self time is its span minus the spans of the wrapped
   closures it called. End-to-end numbers come only from untraced runs. *)

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

(* Calls and busy nanoseconds of one family of wrapped closures. *)
type probe = { mutable calls : int; mutable ns : int }

let probes = Array.init 8 (fun _ -> { calls = 0; ns = 0 })

let init_p = probes.(0)
and receive_p = probes.(1)
and ack_p = probes.(2)
and inject_p = probes.(3)
and plan_p = probes.(4)
and stretch_p = probes.(5)
and fingerprint_p = probes.(6)
and clone_p = probes.(7)

let stop p t0 =
  p.calls <- p.calls + 1;
  p.ns <- p.ns + (clock_ns () - t0)

let trace = ref false

(* The wrappers are spelled out per arity: a generic [span p f x] would
   allocate a partial application on every handler call. *)
let algorithm (a : ('s, 'm) Amac.Algorithm.t) =
  if not !trace then a
  else
    let hooks (h : ('s, 'm) Amac.Algorithm.hooks) =
      {
        Amac.Algorithm.fingerprint =
          (fun s acc ->
            let t0 = clock_ns () in
            let r = h.fingerprint s acc in
            stop fingerprint_p t0;
            r);
        fingerprint_msg =
          (fun m acc ->
            let t0 = clock_ns () in
            let r = h.fingerprint_msg m acc in
            stop fingerprint_p t0;
            r);
        clone =
          (fun s ->
            let t0 = clock_ns () in
            let r = h.clone s in
            stop clone_p t0;
            r);
      }
    in
    {
      a with
      init =
        (fun ctx ->
          let t0 = clock_ns () in
          let r = a.init ctx in
          stop init_p t0;
          r);
      on_receive =
        (fun ctx s m ->
          let t0 = clock_ns () in
          let r = a.on_receive ctx s m in
          stop receive_p t0;
          r);
      on_ack =
        (fun ctx s ->
          let t0 = clock_ns () in
          let r = a.on_ack ctx s in
          stop ack_p t0;
          r);
      hooks = Option.map hooks a.hooks;
    }

let scheduler (s : Amac.Scheduler.t) =
  if not !trace then s
  else
    {
      s with
      plan =
        (fun ~now ~sender ~neighbors ->
          let t0 = clock_ns () in
          let r = s.plan ~now ~sender ~neighbors in
          stop plan_p t0;
          r);
      contention_stretch =
        Option.map
          (fun f ~contention ->
            let t0 = clock_ns () in
            let r = f ~contention in
            stop stretch_p t0;
            r)
          s.contention_stretch;
    }

let injector f =
  if not !trace then f
  else fun ~now ~payload ctx st ->
    let t0 = clock_ns () in
    let r = f ~now ~payload ctx st in
    stop inject_p t0;
    r

(* Wall time of the measured phases: "engine" is the engine or explorer
   call, "checker" the safety checker; the profile workload adds its four
   export steps. *)
let phases = Hashtbl.create 8

let phase name = Option.value (Hashtbl.find_opt phases name) ~default:0

let timed name f =
  let t0 = clock_ns () in
  let r = f () in
  Hashtbl.replace phases name (phase name + clock_ns () - t0);
  r

type result = {
  safe : bool;  (** every checker verdict held *)
  attempted : int;
  failed : int;
  work : int;  (** engine events, or explored states *)
  counts : (string * int) list;
      (** deterministic for a seed: equal across repeats, traced or not *)
  plain : (unit -> unit) option;
      (** the same engine input without recording, for obs.record_s *)
}

let count r key = Option.value (List.assoc_opt key r.counts) ~default:0

let engine_counts (o : Amac.Engine.outcome) =
  [
    ("events", o.events_processed);
    ("broadcasts", o.broadcasts);
    ("deliveries", o.deliveries);
  ]

(* ---- wPAXOS on B14's grids under fixed(3)+sinr(alpha=2) ---- *)

let sinr () =
  Amac.Scheduler.interference ~alpha:2 (Amac.Scheduler.fixed ~delay:3)

let grid width height = Topo_gen.generate ~seed:1 (Topo_gen.Grid { width; height })

let undecided (o : Amac.Engine.outcome) =
  let live = Array.fold_left (fun k c -> if c then k else k + 1) 0 o.crashed in
  live - List.length (Amac.Engine.decision_times o)

let decide_ticks o = Option.value (Amac.Engine.latest_decision o) ~default:0

let wpaxos ~width ~height ~runs ~seed () =
  let topology = grid width height in
  let n = Amac.Topology.size topology in
  let rng = Amac.Rng.create seed in
  let inputs = List.init runs (fun _ -> Consensus.Runner.inputs_random rng ~n) in
  let algorithm = algorithm (Consensus.Wpaxos.make ()) in
  let scheduler = scheduler (sinr ()) in
  fun () ->
    let outcomes, reports =
      List.split
        (List.map
           (fun inputs ->
             let o =
               timed "engine" (fun () ->
                   Amac.Engine.run algorithm ~topology ~scheduler ~inputs)
             in
             (o, timed "checker" (fun () -> Consensus.Checker.check ~inputs o)))
           inputs)
    in
    let total f = List.fold_left (fun k o -> k + f o) 0 outcomes in
    {
      safe = List.for_all Consensus.Checker.safe reports;
      attempted = n * runs;
      failed = total undecided;
      work = total (fun o -> o.events_processed);
      counts =
        [
          ("events", total (fun o -> o.events_processed));
          ("broadcasts", total (fun o -> o.broadcasts));
          ("deliveries", total (fun o -> o.deliveries));
          ("decide_ticks", List.fold_left (fun t o -> max t (decide_ticks o)) 0 outcomes);
        ];
      plain = None;
    }

(* The [amac_sim profile --json --dag] pipeline, exports rendered in
   memory: provenance, metrics and a trace are recorded during the run. *)
let wpaxos_profile ~width ~height ~seed () =
  let topology = grid width height in
  let n = Amac.Topology.size topology in
  let inputs = Consensus.Runner.inputs_random (Amac.Rng.create seed) ~n in
  let algorithm = algorithm (Consensus.Wpaxos.make ()) in
  let scheduler = scheduler (sinr ()) in
  fun () ->
    let provenance = Obs.Provenance.create () in
    let obs = Obs.Metrics.create () in
    let o =
      timed "engine" (fun () ->
          Amac.Engine.run algorithm ~topology ~scheduler ~inputs ~provenance ~obs
            ~record_trace:true ~pp_msg:Consensus.Wpaxos.pp_msg)
    in
    let report = timed "checker" (fun () -> Consensus.Checker.check ~inputs o) in
    let spans = timed "spans" (fun () -> Amac.Trace_export.spans o.trace) in
    let energy =
      timed "energy" (fun () -> Obs.Energy.account ~n ~duration:o.end_time spans)
    in
    let profile =
      timed "profile" (fun () ->
          let name = Printf.sprintf "grid:%dx%d" width height in
          Obs.Profile.make ~provenance
            ~meta:[ ("topology", Obs.Json.String name) ]
            ~energy ())
    in
    let export_bytes =
      timed "json" (fun () ->
          List.fold_left
            (fun k json -> k + String.length (Obs.Json.to_string json))
            0
            [
              Obs.Profile.to_json profile;
              Obs.Provenance.to_json provenance;
              Obs.Metrics.to_json (Obs.Metrics.snapshot obs);
            ])
    in
    {
      safe = Consensus.Checker.safe report;
      attempted = n;
      failed = undecided o;
      work = o.events_processed;
      counts =
        engine_counts o
        @ [
            ("decide_ticks", decide_ticks o);
            ("export_bytes", export_bytes);
            ("dag_vertices", Obs.Provenance.length provenance);
          ];
      plain =
        Some (fun () -> ignore (Amac.Engine.run algorithm ~topology ~scheduler ~inputs));
    }

(* ---- Replicated logs under an open-loop client schedule ---- *)

(* Commit latency is first apply anywhere minus the injection's pop time,
   both off the engine clock, as in [Workload]. *)
let command_result ~safe ~issued (o : Amac.Engine.outcome) ~submitted ~applied
    extra =
  let latencies =
    Hashtbl.fold
      (fun cmd t acc ->
        match Hashtbl.find_opt submitted cmd with
        | Some s -> (t - s) :: acc
        | None -> acc)
      applied []
    |> Array.of_list
  in
  Array.sort compare latencies;
  let quantile q =
    let len = Array.length latencies in
    if len = 0 then 0
    else latencies.(max 0 (int_of_float (ceil (q *. float_of_int len)) - 1))
  in
  let committed = Hashtbl.length applied in
  {
    safe;
    attempted = issued;
    failed = issued - committed;
    work = o.events_processed;
    counts =
      engine_counts o
      @ [
          ("committed", committed);
          ("commit_p50_ticks", quantile 0.50);
          ("commit_p99_ticks", quantile 0.99);
          ("last_commit_tick", Hashtbl.fold (fun _ t acc -> max t acc) applied 0);
        ]
      @ extra;
    plain = None;
  }

(* Inverse-CDF exponential gap, floored at one tick, as [Workload]. *)
let gap rng ~mean =
  max 1
    (int_of_float (-.float_of_int mean *. log (1.0 -. Amac.Rng.float rng 1.0)))

let first_apply clock applied cmd =
  if not (Hashtbl.mem applied cmd) then Hashtbl.replace applied cmd !clock

let smr ~cmds ~seed () =
  let n = 5 in
  let topology = Amac.Topology.clique n in
  (* Fault times are scaled with the load, so --small keeps every fault
     inside the arrival window. *)
  let at t = t * cmds / 10_000 in
  let crash_from = at 2000 and crash_until = at 2600 in
  let faults =
    Fault.
      [
        Link_drop { edge = (0, 1); from_ = at 50; until = at 110 };
        Crash { node = 0; at = crash_from };
        Recover { node = 0; at = crash_until };
        Partition { cut = [ 3 ]; from_ = at 8000; until = at 8400 };
      ]
  in
  let compiled = Fault.compile ~n faults in
  let clock = ref 0 in
  let submitted = Hashtbl.create (2 * cmds) in
  let applied = Hashtbl.create (2 * cmds) in
  let alg, h =
    Smr.make ~clock
      ~on_apply:(fun ~node:_ ~index:_ ~cmd -> first_apply clock applied cmd)
      ()
  in
  let algorithm = algorithm alg in
  let on_inject =
    injector (fun ~now ~payload ctx st ->
        if not (Hashtbl.mem submitted payload) then
          Hashtbl.replace submitted payload now;
        Smr.injector h ~now ~payload ctx st)
  in
  (* Poisson arrivals at mean gap 2, each at a uniformly drawn replica.
     Node 0 is drained 100 ticks before its crash and gets no clients
     until it recovers: a command it takes just before crashing dies with
     it, unforwarded. *)
  let rng = Amac.Rng.create seed in
  let t = ref 0 in
  let rec replica () =
    let node = Amac.Rng.int rng n in
    if node = 0 && !t >= crash_from - 100 && !t < crash_until then replica ()
    else node
  in
  let injections =
    List.init cmds (fun i ->
        t := !t + gap rng ~mean:2;
        (replica (), !t, i + 1))
  in
  let scheduler = scheduler (Amac.Scheduler.bursty ~fack:3 ~fast_len:40 ~slow_len:12) in
  fun () ->
    let o =
      timed "engine" (fun () ->
          Amac.Engine.run algorithm ~topology ~scheduler ~inputs:(Array.make n 0)
            ~crashes:compiled.crashes ~recoveries:compiled.recoveries
            ?drop:compiled.drop ?stutter:compiled.stutter ~injections ~on_inject
            ~clock ~max_time:400_000 ~stop_when_all_decided:false)
    in
    let violations = timed "checker" (fun () -> Smr_checker.check h) in
    command_result ~safe:(violations = []) ~issued:cmds o ~submitted ~applied []

(* G=4 groups on clique:8; group g's voters are g, g+1, g+2, as in B13. *)
let shard ~cmds ~seed () =
  let n = 8 and groups = 4 and burst = 8 in
  let topology = Amac.Topology.clique n in
  let members_of g = [ g mod n; (g + 1) mod n; (g + 2) mod n ] in
  let clock = ref 0 in
  let submitted = Hashtbl.create (2 * cmds) in
  let applied = Hashtbl.create (2 * cmds) in
  let alg, h =
    Shard.make ~batch:8 ~members_of ~clock ~groups
      ~on_apply:(fun ~node:_ ~group:_ ~cmd -> first_apply clock applied cmd)
      ()
  in
  let algorithm = algorithm alg in
  (* Bit 43 marks the flush markers, which are not client commands. *)
  let on_inject =
    injector (fun ~now ~payload ctx st ->
        if payload land (1 lsl 43) = 0 && not (Hashtbl.mem submitted payload) then
          Hashtbl.replace submitted payload now;
        Shard.injector h ~now ~payload ctx st)
  in
  (* Open loop, mean gap 1 and [burst] commands per arrival, Zipf keys
     over 1024; shard-affine clients send each command to a voter of its
     key's group. *)
  let rng = Amac.Rng.create seed in
  let zipf = Zipf.make ~support:1024 ~seed:(seed lxor 0x5bd1e995) () in
  let t = ref 0 in
  let commands =
    List.init cmds (fun i ->
        if i mod burst = 0 then t := !t + gap rng ~mean:1;
        let cmd = i + 1 in
        let voters = members_of (Shard.route h ~key:(Zipf.next zipf) ~cmd) in
        (List.nth voters (Amac.Rng.int rng 3), !t, cmd))
  in
  (* Flush markers push trailing sub-batches into the logs. *)
  let flushes =
    List.concat_map
      (fun node ->
        List.init groups (fun group -> (node, !t + 3, Shard.flush_cmd ~group)))
      (List.init n Fun.id)
  in
  let injections = commands @ flushes in
  let scheduler = scheduler (Amac.Scheduler.bursty ~fack:3 ~fast_len:40 ~slow_len:12) in
  fun () ->
    let o =
      timed "engine" (fun () ->
          Amac.Engine.run algorithm ~topology ~scheduler ~inputs:(Array.make n 0)
            ~injections ~on_inject ~clock ~max_time:4_000_000
            ~stop_when_all_decided:false)
    in
    let violations = timed "checker" (fun () -> Shard.check h) in
    command_result ~safe:(violations = []) ~issued:cmds o ~submitted ~applied
      [ ("batches", Shard.batches h) ]

(* ---- Exhaustive exploration: no engine, no scheduler ---- *)

(* The explorer enumerates every schedule, so the seed has nothing to
   draw. *)
let explore ~n ~seed:_ () =
  let topology = Amac.Topology.clique n in
  let inputs = Consensus.Runner.inputs_alternating ~n in
  let config =
    { Mcheck.Explore.default with crash_budget = 1; max_states = 5_000_000 }
  in
  let algorithm = algorithm Consensus.Two_phase.algorithm in
  fun () ->
    let s =
      timed "engine" (fun () ->
          Mcheck.Explore.explore config algorithm ~topology ~inputs)
    in
    let clean = s.violations = [] in
    {
      safe = clean;
      attempted = 1;
      failed = (if clean && not s.truncated then 0 else 1);
      work = s.states;
      counts =
        [
          ("states", s.states);
          ("transitions", s.transitions);
          ("dedup_hits", s.dedup_hits);
          ("sleep_skips", s.sleep_skips);
        ];
      plain = None;
    }

(* Full size, and about 1/20 of it for --small. *)
let workloads =
  [
    ( "wpaxos_grid1000",
      fun ~small ->
        if small then wpaxos ~width:5 ~height:10 ~runs:1
        else wpaxos ~width:25 ~height:40 ~runs:1 );
    ( "wpaxos_grid100",
      fun ~small -> wpaxos ~width:10 ~height:10 ~runs:(if small then 3 else 64) );
    ( "wpaxos_grid400_profile",
      fun ~small ->
        if small then wpaxos_profile ~width:4 ~height:5
        else wpaxos_profile ~width:20 ~height:20 );
    ("smr_clique5", fun ~small -> smr ~cmds:(if small then 500 else 10_000));
    ("shard_g4", fun ~small -> shard ~cmds:(if small then 2_500 else 50_000));
    ("explore_clique3", fun ~small -> explore ~n:(if small then 2 else 3));
  ]

(* ---- Reporting ---- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let layers r ~wall =
  let f = float_of_int and s ns = float_of_int ns /. 1e9 in
  let per p = if p.calls = 0 then 0. else f p.ns /. f p.calls in
  let share ns = f ns /. f wall in
  let count k = f (count r k) in
  let engine = phase "engine" and checker = phase "checker" in
  let exports = phase "spans" + phase "energy" + phase "profile" + phase "json" in
  let handler = init_p.ns + receive_p.ns + ack_p.ns + inject_p.ns in
  let sched = plan_p.ns + stretch_p.ns in
  let hooks = fingerprint_p.ns + clone_p.ns in
  let explored = List.mem_assoc "states" r.counts in
  let engine_self = if explored then 0 else engine - handler - sched in
  let explore_self = if explored then engine - handler - hooks else 0 in
  let plain = phase "plain" in
  [
    ("engine.events", count "events");
    ("engine.broadcasts", count "broadcasts");
    ("engine.deliveries", count "deliveries");
    ("engine.self_s", s engine_self);
    ("engine.self_ns_per_event", if explored then 0. else f engine_self /. count "events");
    ("engine.share", share engine_self);
    ("scheduler.plan_calls", f plan_p.calls);
    ("scheduler.plan_ns_per_call", per plan_p);
    ("scheduler.stretch_calls", f stretch_p.calls);
    ("scheduler.stretch_ns_per_call", per stretch_p);
    ("scheduler.share", share sched);
    ("handler.init_calls", f init_p.calls);
    ("handler.receive_calls", f receive_p.calls);
    ("handler.receive_ns_per_call", per receive_p);
    ("handler.ack_calls", f ack_p.calls);
    ("handler.ack_ns_per_call", per ack_p);
    ("handler.inject_calls", f inject_p.calls);
    ("handler.inject_ns_per_call", per inject_p);
    ("handler.share", share handler);
    ("shard.batches", count "batches");
    ("hooks.fingerprint_calls", f fingerprint_p.calls);
    ("hooks.fingerprint_ns_per_call", per fingerprint_p);
    ("hooks.clone_calls", f clone_p.calls);
    ("hooks.clone_ns_per_call", per clone_p);
    ("hooks.share", share hooks);
    ("explore.states", count "states");
    ("explore.transitions", count "transitions");
    ("explore.dedup_hits", count "dedup_hits");
    ("explore.sleep_skips", count "sleep_skips");
    ("explore.self_s", s explore_self);
    ("explore.share", share explore_self);
    ("checker.s", s checker);
    ("checker.share", share checker);
    ("obs.record_s", if plain = 0 then 0. else s (engine - plain));
    ("obs.spans_s", s (phase "spans"));
    ("obs.energy_s", s (phase "energy"));
    ("obs.profile_s", s (phase "profile"));
    ("obs.json_s", s (phase "json"));
    ("obs.export_bytes", count "export_bytes");
    ("obs.dag_vertices", count "dag_vertices");
    ("obs.share", share exports);
    ("sim.decide_ticks", count "decide_ticks");
    ("sim.commit_p50_ticks", count "commit_p50_ticks");
    ("sim.commit_p99_ticks", count "commit_p99_ticks");
    ( "sim.cmds_per_ktick",
      if count "last_commit_tick" = 0. then 0.
      else 1000. *. count "committed" /. count "last_commit_tick" );
  ]

(* Set-up runs 9 times and reports the median; the last one's product is
   measured. The count is fixed, not time-bound: the garbage the earlier
   set-ups leave shapes the heap the measured phase starts from, and a
   varying count made major-GC work and peak RSS vary between identical
   runs. *)
let set_up setup =
  let times = Array.make 9 0 and run = ref None in
  for i = 0 to 8 do
    let t0 = clock_ns () in
    run := Some (setup ());
    times.(i) <- clock_ns () - t0
  done;
  Array.sort compare times;
  (times.(4), Option.get !run)

let () =
  let usage = "cost.exe WORKLOAD [--seed S] [--trace] [--small]" in
  let seed = ref 42 and small = ref false and name = ref "" in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "S  input seed (default 42)");
      ("--trace", Arg.Set trace, " wrap the layers in timers");
      ("--small", Arg.Set small, " about 1/20 of the full size");
    ]
    (fun w -> name := w)
    usage;
  let setup =
    match List.assoc_opt !name workloads with
    | Some w -> w ~small:!small ~seed:!seed
    | None ->
        prerr_endline
          (usage ^ "\nworkloads: " ^ String.concat " " (List.map fst workloads));
        exit 2
  in
  let setup_ns, run = set_up setup in
  Gc.compact ();
  let g0 = Gc.quick_stat () and words0 = Gc.minor_words () in
  let t0 = clock_ns () in
  let r = run () in
  let wall = clock_ns () - t0 in
  let g1 = Gc.quick_stat () and words1 = Gc.minor_words () in
  (match r.plain with
  | Some plain when !trace ->
      let saved = Array.map (fun p -> (p.calls, p.ns)) probes in
      timed "plain" plain;
      Array.iteri
        (fun i (calls, ns) ->
          probes.(i).calls <- calls;
          probes.(i).ns <- ns)
        saved
  | _ -> ());
  let open Obs.Json in
  let seconds ns = Float (float_of_int ns /. 1e9) in
  print_endline
    (to_string
       (Obj
          [
            ("workload", String !name);
            ("seed", Int !seed);
            ("traced", Bool !trace);
            ("ocaml", String Sys.ocaml_version);
            ("safe", Bool r.safe);
            ("attempted", Int r.attempted);
            ("failed", Int r.failed);
            ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) r.counts));
            ("work", Int r.work);
            ("setup_s", seconds setup_ns);
            ("wall_s", seconds wall);
            ("engine_s", seconds (phase "engine"));
            ("minor_words", Float (words1 -. words0));
            ("major_words", Float (g1.major_words -. g0.major_words));
            ("minor_collections", Int (g1.minor_collections - g0.minor_collections));
            ("major_collections", Int (g1.major_collections - g0.major_collections));
            ("peak_rss_mb", Float (peak_rss_mb ()));
            ( "layers",
              Obj
                (if !trace then
                   List.map (fun (k, v) -> (k, Float v)) (layers r ~wall)
                 else []) );
          ]))
