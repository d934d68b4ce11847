type outcome = {
  decisions : (int * int) option array;
  extra_decides : (int * int * int) list;
  crashed : bool array;
  incarnations : int array;
  broadcasts : int;
  deliveries : int;
  discarded : int;
  dropped : int;
  link_dropped : int;
  stuttered : int;
  suppressed : int;
  substituted : int;
  max_ids_per_message : int;
  unreliable_deliveries : int;
  injected : int;
  topo_changes : int;
  end_time : int;
  events_processed : int;
  hit_max_time : bool;
  provenance : Obs.Provenance.t option;
  trace : Trace.entry list;
}

let all_decided outcome =
  let ok = ref true in
  Array.iteri
    (fun i decision ->
      if (not outcome.crashed.(i)) && decision = None then ok := false)
    outcome.decisions;
  !ok

let decision_times outcome =
  let acc = ref [] in
  Array.iteri
    (fun i decision ->
      match decision with
      | Some (_, time) when not outcome.crashed.(i) -> acc := time :: !acc
      | Some _ | None -> ())
    outcome.decisions;
  List.rev !acc

let latest_decision outcome =
  match decision_times outcome with
  | [] -> None
  | times -> Some (List.fold_left max 0 times)

(* Event kinds, in processing-priority order at equal times: a crash takes
   effect before deliveries at the same tick (so "delivery at the crash
   instant" is lost, making crash-mid-broadcast expressible), a recovery
   right after any crash of the tick (schedule validation forbids a node
   crashing and recovering at the same instant), and all deliveries of a
   tick land before any ack of that tick (the model requires every neighbor
   to receive before the sender's ack).

   [Receive] and [Ack] are stamped with the incarnation of the nodes they
   concern at scheduling time: a recovery invalidates everything in flight
   to or from the previous incarnation, so stale events are recognised and
   dropped when popped. *)
type 'm event =
  | Crash of { node : int }
  | Recover of { node : int }
  | Receive of {
      node : int;
      receiver_inc : int;
      sender : int;
      sender_inc : int;
      msg : 'm;
      cause : int;
          (* provenance vertex id of the broadcast; -1 when tracking is off *)
    }
  | Ack of { node : int; inc : int; cause : int }
  | Inject of { node : int; payload : int }
      (* external input (a client submit) handed to [on_inject]; carries no
         incarnation — it targets whichever incarnation is up at pop time,
         and is lost if the node is down. *)
  | Topo of { delta : Topology.delta }
      (* churn/mobility: an edge delta applied in place to the engine's
         private topology copy. Priority 5 slots after every pre-existing
         kind, so runs without deltas keep their exact event order. *)

let kind_priority = function
  | Crash _ -> 0
  | Recover _ -> 1
  | Receive _ -> 2
  | Ack _ -> 3
  | Inject _ -> 4
  | Topo _ -> 5

(* Event-queue keys encode (time, kind priority); Pqueue breaks remaining
   ties by insertion order, making runs bit-for-bit deterministic. *)
let key_of ~time event = (time * 8) + kind_priority event

let time_of_key key = key / 8

(* The engine's metrics instruments, registered once per run in a caller
   supplied [Obs.Metrics] registry. Every instrument is labelled with the
   algorithm and scheduler names; the per-node broadcast counters add a
   [node] label. All updates are O(1) int/float bumps on the hot path. *)
type instruments = {
  events_total : Obs.Metrics.counter;
  deliveries_total : Obs.Metrics.counter;
  acks_total : Obs.Metrics.counter;
  drops_stale : Obs.Metrics.counter;  (* crash/incarnation-cancelled *)
  drops_link : Obs.Metrics.counter;  (* eaten by the [drop] fault hook *)
  discards_total : Obs.Metrics.counter;
  stutters_total : Obs.Metrics.counter;
  crashes_total : Obs.Metrics.counter;
  recoveries_total : Obs.Metrics.counter;
  unreliable_total : Obs.Metrics.counter;
  broadcasts_by_node : Obs.Metrics.counter array;
  pqueue_depth_max : Obs.Metrics.gauge;
  end_time_gauge : Obs.Metrics.gauge;
  ack_latency : Obs.Metrics.histogram;
  decide_latency : Obs.Metrics.histogram;
  (* Per-node variants of the two latency histograms (same metric name, a
     [node] label added), so leader and follower distributions separate in
     snapshots — the global, unlabelled pair keeps its aggregate view. *)
  ack_latency_by_node : Obs.Metrics.histogram array;
  decide_latency_by_node : Obs.Metrics.histogram array;
}

let make_instruments reg ~algorithm ~scheduler ~n =
  let labels = [ ("algorithm", algorithm); ("scheduler", scheduler) ] in
  let counter name = Obs.Metrics.counter reg ~labels name in
  {
    events_total = counter "engine_events_total";
    deliveries_total = counter "engine_deliveries_total";
    acks_total = counter "engine_acks_total";
    drops_stale =
      Obs.Metrics.counter reg
        ~labels:(("reason", "stale") :: labels)
        "engine_drops_total";
    drops_link =
      Obs.Metrics.counter reg
        ~labels:(("reason", "link") :: labels)
        "engine_drops_total";
    discards_total = counter "engine_discards_total";
    stutters_total = counter "engine_stutters_total";
    crashes_total = counter "engine_crashes_total";
    recoveries_total = counter "engine_recoveries_total";
    unreliable_total = counter "engine_unreliable_deliveries_total";
    broadcasts_by_node =
      Array.init n (fun i ->
          Obs.Metrics.counter reg
            ~labels:(("node", string_of_int i) :: labels)
            "engine_broadcasts_total");
    pqueue_depth_max = Obs.Metrics.gauge reg ~labels "engine_pqueue_depth_max";
    end_time_gauge = Obs.Metrics.gauge reg ~labels "engine_end_time";
    ack_latency = Obs.Metrics.histogram reg ~labels "engine_ack_latency_ticks";
    decide_latency =
      Obs.Metrics.histogram reg ~labels "engine_decide_latency_ticks";
    ack_latency_by_node =
      Array.init n (fun i ->
          Obs.Metrics.histogram reg
            ~labels:(("node", string_of_int i) :: labels)
            "engine_ack_latency_ticks");
    decide_latency_by_node =
      Array.init n (fun i ->
          Obs.Metrics.histogram reg
            ~labels:(("node", string_of_int i) :: labels)
            "engine_decide_latency_ticks");
  }

(* Interference-mode instruments, registered only when the scheduler
   carries a [contention_stretch] hook: runs in the contention-free model
   must keep byte-identical metrics snapshots, so these families never
   exist there. One contention observation and one stretch observation per
   accepted broadcast; per-node stretch histograms separate hot spots. *)
type contention_instruments = {
  contention_hist : Obs.Metrics.histogram;
  contention_max : Obs.Metrics.gauge;
  stretch_hist : Obs.Metrics.histogram;
  stretch_by_node : Obs.Metrics.histogram array;
}

let make_contention_instruments reg ~algorithm ~scheduler ~n =
  let labels = [ ("algorithm", algorithm); ("scheduler", scheduler) ] in
  {
    contention_hist =
      Obs.Metrics.histogram reg ~labels "engine_contention_neighbors";
    contention_max = Obs.Metrics.gauge reg ~labels "engine_contention_max";
    stretch_hist =
      Obs.Metrics.histogram reg ~labels "engine_ack_stretch_ticks";
    stretch_by_node =
      Array.init n (fun i ->
          Obs.Metrics.histogram reg
            ~labels:(("node", string_of_int i) :: labels)
            "engine_ack_stretch_ticks");
  }

(* All the run state, advanced one event per [step]; [run] is [create], a
   [step] loop, then [snapshot]. *)
type ('s, 'm) sim = {
  algorithm : ('s, 'm) Algorithm.t;
  topology : Topology.t;
  scheduler : Scheduler.t;
  unreliable : Topology.t option;
  render_msg : 'm -> string;
  max_time : int;
  stop_when_all_decided : bool;
  record_trace : bool;
  drop : (now:int -> sender:int -> receiver:int -> bool) option;
  stutter : (now:int -> node:int -> bool) option;
  substitute : (now:int -> sender:int -> receiver:int -> 'm -> 'm option) option;
  on_inject :
    (now:int -> payload:int -> Algorithm.ctx -> 's -> 'm Algorithm.action list)
    option;
  clock : int ref option;  (* mirrors the current event time, for callbacks *)
  queue : 'm event Pqueue.t;
  states : 's array;
  ctxs : Algorithm.ctx array;
  prov : Obs.Provenance.t option;
  last_info : int array;
      (* per node, the vertex id of its latest *informational* event (Boot,
         Inject or Deliver) — the Lamport-style predecessor any Broadcast or
         Decide the node emits is attributed to. Attributing to information
         rather than to the literal triggering event (often the Ack that
         drained an algorithm-side send queue) keeps critical paths tracking
         message relays across nodes; the serialization wait surfaces as
         latency on the info->Broadcast edge instead. All -1 when [prov] is
         off. *)
  crashed : bool array;
  crash_time : int array;
  incarnation : int array;
  busy : bool array;
  busy_since : int array;  (* broadcast start time while busy; for ack latency *)
  plan_scratch : bool array;
      (* preallocated per-node marks for scheduler-plan validation: the
         neighbor set is marked and consumed in O(degree) per broadcast
         instead of allocating and sorting a receiver list each time *)
  track_contention : bool;
      (* = the scheduler carries [contention_stretch]; gates all
         interference bookkeeping so contention-free runs execute the
         exact pre-existing hot path *)
  on_air : bool array;
      (* node currently counted as transmitting for contention purposes:
         set at broadcast accept, cleared at the ack — or at a crash, a
         dead radio stops jamming its neighborhood *)
  air_neighbors : int array;
      (* per node, how many of its *current* neighbors are on air — the
         local contention read in O(1) at each broadcast. Maintained
         incrementally (O(degree) per transmission start/end, and
         adjusted by topology deltas), never by scanning. *)
  obs : instruments option;
  cobs : contention_instruments option;
  decisions : (int * int) option array;
  mutable extra_decides : (int * int * int) list;  (* newest first *)
  mutable broadcasts : int;
  mutable deliveries : int;
  mutable discarded : int;
  mutable dropped : int;
  mutable link_dropped : int;
  mutable stuttered : int;
  mutable suppressed : int;
  mutable substituted : int;
  mutable max_ids : int;
  mutable unreliable_deliveries : int;
  mutable injected : int;
  mutable topo_changes : int;
  mutable events_processed : int;
  mutable end_time : int;
  mutable hit_max_time : bool;
  mutable trace : Trace.entry list;  (* newest first *)
  mutable live_undecided : int;
  mutable stopped : bool;
}

let log sim entry = if sim.record_trace then sim.trace <- entry :: sim.trace

let obs_counter sim pick =
  match sim.obs with Some i -> Obs.Metrics.inc (pick i) | None -> ()

let obs_hist sim pick v =
  match sim.obs with
  | Some i -> Obs.Metrics.observe (pick i) (float_of_int v)
  | None -> ()

(* Append a provenance vertex. Purely observational: no recording ever
   changes scheduling, handler inputs or the trace-entry sequence, so the
   determinism contract is unaffected by whether a DAG is being collected. *)
let prov_record sim ~kind ~node ~time ~cause =
  match sim.prov with
  | Some p -> Obs.Provenance.record p ~kind ~node ~time ~cause
  | None -> -1

(* Append a root vertex (Boot/Inject) and make it the node's latest
   informational event. *)
let prov_root sim ~kind ~node ~time =
  if sim.prov <> None then
    sim.last_info.(node) <- prov_record sim ~kind ~node ~time ~cause:(-1)

(* End of a transmission for contention purposes: the ack arrived, or the
   sender crashed mid-broadcast (a dead radio stops loading the channel;
   its already-scheduled deliveries at or after the crash are dropped by
   the stale-sender check anyway). Decrementing over the *current* neighbor
   set is exact even under topology deltas, because delta application
   adjusts [air_neighbors] for on-air endpoints (see the [Topo] case). *)
let end_transmission sim node =
  if sim.track_contention && sim.on_air.(node) then begin
    sim.on_air.(node) <- false;
    List.iter
      (fun w -> sim.air_neighbors.(w) <- sim.air_neighbors.(w) - 1)
      (Topology.neighbors sim.topology node)
  end

let do_broadcast ~now sim sender msg =
  if sim.busy.(sender) then begin
    sim.discarded <- sim.discarded + 1;
    obs_counter sim (fun i -> i.discards_total);
    if sim.record_trace then
      log sim
        (Trace.Discarded { time = now; node = sender; msg = sim.render_msg msg })
  end
  else begin
    sim.busy.(sender) <- true;
    sim.busy_since.(sender) <- now;
    sim.broadcasts <- sim.broadcasts + 1;
    obs_counter sim (fun i -> i.broadcasts_by_node.(sender));
    let ids = sim.algorithm.msg_ids msg in
    if ids > sim.max_ids then sim.max_ids <- ids;
    (* Discarded broadcasts (the busy branch above) get no vertex: the MAC
       layer never accepted them, so nothing downstream can be caused by
       one. An accepted one is caused by the sender's latest informational
       event — what its content can depend on. *)
    let bid =
      prov_record sim ~kind:Obs.Provenance.Broadcast ~node:sender ~time:now
        ~cause:sim.last_info.(sender)
    in
    if sim.record_trace then
      log sim
        (Trace.Broadcast_start
           { time = now; node = sender; ids; msg = sim.render_msg msg });
    let neighbors = Topology.neighbors sim.topology sender in
    (* Interference mode: read the sender's local contention (its own
       transmission excluded — it starts only below), derive the stretch,
       then mark the sender on air so concurrent neighbors see it. *)
    let stretch =
      if not sim.track_contention then 0
      else begin
        let contention = sim.air_neighbors.(sender) in
        let s =
          match sim.scheduler.Scheduler.contention_stretch with
          | Some f -> f ~contention
          | None -> 0
        in
        if s < 0 then
          invalid_arg "Engine.run: contention stretch must be >= 0";
        (match sim.cobs with
        | Some ci ->
            Obs.Metrics.observe ci.contention_hist (float_of_int contention);
            Obs.Metrics.observe_max ci.contention_max
              (float_of_int contention);
            Obs.Metrics.observe ci.stretch_hist (float_of_int s);
            Obs.Metrics.observe ci.stretch_by_node.(sender) (float_of_int s)
        | None -> ());
        sim.on_air.(sender) <- true;
        List.iter
          (fun w -> sim.air_neighbors.(w) <- sim.air_neighbors.(w) + 1)
          neighbors;
        s
      end
    in
    let plan = sim.scheduler.Scheduler.plan ~now ~sender ~neighbors in
    (* Assert the scheduler respects the MAC layer contract. The base plan
       is checked against F_ack *before* any contention stretch: in
       interference mode the effective bound is F_ack + stretch. *)
    if plan.Scheduler.ack_at > now + sim.scheduler.Scheduler.fack then
      invalid_arg
        (Printf.sprintf
           "Engine.run: scheduler %s acked at %d for broadcast at %d \
            (F_ack=%d)"
           sim.scheduler.Scheduler.name plan.Scheduler.ack_at now
           sim.scheduler.Scheduler.fack);
    if plan.Scheduler.ack_at <= now then
      invalid_arg "Engine.run: ack must be strictly after the broadcast";
    let plan =
      if stretch = 0 then plan
      else
        {
          Scheduler.receives =
            List.map (fun (v, t) -> (v, t + stretch)) plan.Scheduler.receives;
          ack_at = plan.Scheduler.ack_at + stretch;
        }
    in
    (* Set-equality check against the neighbor set over the preallocated
       scratch marks: mark every neighbor, consume one mark per planned
       delivery. Duplicates and non-neighbors hit an unmarked slot, a
       missing neighbor leaves the consumed count short — O(degree) with
       no per-broadcast list or sort allocation. *)
    let marked =
      List.fold_left
        (fun acc v ->
          sim.plan_scratch.(v) <- true;
          acc + 1)
        0 neighbors
    in
    let consumed =
      List.fold_left
        (fun acc (receiver, _) ->
          if
            receiver < 0
            || receiver >= Array.length sim.plan_scratch
            || not sim.plan_scratch.(receiver)
          then
            invalid_arg
              "Engine.run: scheduler must deliver to exactly the neighbor set";
          sim.plan_scratch.(receiver) <- false;
          acc + 1)
        0 plan.Scheduler.receives
    in
    if consumed <> marked then begin
      List.iter (fun v -> sim.plan_scratch.(v) <- false) neighbors;
      invalid_arg
        "Engine.run: scheduler must deliver to exactly the neighbor set"
    end;
    let deliver (receiver, time) =
      if time <= now || time > plan.Scheduler.ack_at then
        invalid_arg
          (Printf.sprintf
             "Engine.run: delivery time %d outside (broadcast %d, ack %d]"
             time now plan.Scheduler.ack_at);
      let event =
        Receive
          {
            node = receiver;
            receiver_inc = sim.incarnation.(receiver);
            sender;
            sender_inc = sim.incarnation.(sender);
            msg;
            cause = bid;
          }
      in
      Pqueue.add sim.queue ~key:(key_of ~time event) event
    in
    List.iter deliver plan.Scheduler.receives;
    (* Unreliable edges: the scheduler may additionally deliver to any
       subset of the sender's unreliable neighbors, at any time within
       the broadcast window. These deliveries never gate the ack. *)
    (match (sim.unreliable, sim.scheduler.Scheduler.unreliable_plan) with
    | Some extra, Some unreliable_plan ->
        let candidates = Topology.neighbors extra sender in
        if candidates <> [] then begin
          let chosen =
            unreliable_plan ~now ~sender ~candidates
              ~ack_at:plan.Scheduler.ack_at
          in
          (* Candidate membership via the scratch marks (marks are not
             consumed: the plan may legitimately deliver twice to one
             candidate), so validating the chosen list is O(candidates +
             chosen) instead of the quadratic List.mem scan the 1000-node
             allocation audit flagged. *)
          List.iter (fun v -> sim.plan_scratch.(v) <- true) candidates;
          (try
             List.iter
               (fun (receiver, time) ->
                 if
                   receiver < 0
                   || receiver >= Array.length sim.plan_scratch
                   || not sim.plan_scratch.(receiver)
                 then
                   invalid_arg
                     "Engine.run: unreliable delivery to a non-candidate";
                 deliver (receiver, time);
                 sim.unreliable_deliveries <- sim.unreliable_deliveries + 1;
                 obs_counter sim (fun i -> i.unreliable_total))
               chosen
           with e ->
             List.iter (fun v -> sim.plan_scratch.(v) <- false) candidates;
             raise e);
          List.iter (fun v -> sim.plan_scratch.(v) <- false) candidates
        end
    | None, _ | _, None -> ());
    let ack = Ack { node = sender; inc = sim.incarnation.(sender); cause = bid } in
    Pqueue.add sim.queue ~key:(key_of ~time:plan.Scheduler.ack_at ack) ack
  end

let handle_decide ~now sim node value =
  match sim.decisions.(node) with
  | None ->
      sim.decisions.(node) <- Some (value, now);
      sim.live_undecided <- sim.live_undecided - 1;
      obs_hist sim (fun i -> i.decide_latency) now;
      obs_hist sim (fun i -> i.decide_latency_by_node.(node)) now;
      ignore
        (prov_record sim
           ~kind:(Obs.Provenance.Decide { value })
           ~node ~time:now ~cause:sim.last_info.(node));
      log sim (Trace.Decided { time = now; node; value })
  | Some (prior, _) ->
      if prior <> value then
        sim.extra_decides <- (node, value, now) :: sim.extra_decides

let rec apply_actions ~now sim node actions =
  match actions with
  | [] -> ()
  | Algorithm.Decide value :: rest ->
      handle_decide ~now sim node value;
      apply_actions ~now sim node rest
  | Algorithm.Broadcast msg :: rest ->
      do_broadcast ~now sim node msg;
      apply_actions ~now sim node rest

(* Fault-aware action application: inside a stutter window the node's
   handlers still run (it receives and its state evolves) but the actions
   they return are suppressed — the node takes no externally visible
   steps. *)
let apply_actions_faulted ~now sim node actions =
  let stuttering =
    match sim.stutter with Some f -> f ~now ~node | None -> false
  in
  if stuttering then begin
    let count = List.length actions in
    if count > 0 then begin
      sim.stuttered <- sim.stuttered + count;
      (match sim.obs with
      | Some i -> Obs.Metrics.add i.stutters_total count
      | None -> ());
      log sim (Trace.Stuttered { time = now; node; actions = count })
    end
  end
  else apply_actions ~now sim node actions

(* Crash/recovery schedules must describe a consistent per-node lifetime:
   alternating crash < recover < crash < ... with strictly increasing times.
   Anything else (duplicate crash of the same incarnation, recovery of a
   node that never crashed, a recovery at or before its crash) is a
   malformed fault plan and is rejected up front rather than silently
   reinterpreted. *)
let validate_fault_schedule ~n ~crashes ~recoveries =
  let check what (node, time) =
    if node < 0 || node >= n then
      invalid_arg
        (Printf.sprintf "Engine.run: %s node %d out of range [0,%d)" what node
           n);
    if time < 0 then
      invalid_arg
        (Printf.sprintf "Engine.run: negative %s time for node %d" what node)
  in
  List.iter (check "crash") crashes;
  List.iter (check "recovery") recoveries;
  (* Bucket the schedule per node in one pass: the per-node filter this
     replaces rescanned the full crash and recovery lists n times — an
     O(n * faults) = O(n^2) wall at 1000 nodes under dense fault plans.
     Prepend-then-reverse keeps each bucket in input order (crashes before
     recoveries), and the sort is stable, so tie handling and error
     messages are unchanged. *)
  let buckets = Array.make n [] in
  List.iter
    (fun (node, time) -> buckets.(node) <- (time, `Crash) :: buckets.(node))
    crashes;
  List.iter
    (fun (node, time) -> buckets.(node) <- (time, `Recover) :: buckets.(node))
    recoveries;
  for node = 0 to n - 1 do
    let events =
      List.sort
        (fun (ta, _) (tb, _) -> Int.compare ta tb)
        (List.rev buckets.(node))
    in
    let rec walk state last = function
      | [] -> ()
      | (time, kind) :: rest -> (
          if last = Some time then
            invalid_arg
              (Printf.sprintf
                 "Engine.run: node %d has two fault events at t=%d" node time);
          match (state, kind) with
          | `Up, `Crash -> walk `Down (Some time) rest
          | `Down, `Recover -> walk `Up (Some time) rest
          | `Down, `Crash ->
              invalid_arg
                (Printf.sprintf
                   "Engine.run: duplicate crash of node %d at t=%d (same \
                    incarnation crashed twice, no recovery between)"
                   node time)
          | `Up, `Recover ->
              invalid_arg
                (Printf.sprintf
                   "Engine.run: recovery of node %d at t=%d without a \
                    preceding crash"
                   node time))
    in
    walk `Up None events
  done

let create ?identities ?(give_n = true) ?(give_diameter = false)
    ?(crashes = []) ?(recoveries = []) ?drop ?stutter ?substitute
    ?(injections = []) ?on_inject ?(topo_deltas = []) ?clock
    ?(max_time = 1_000_000) ?(stop_when_all_decided = true) ?provenance
    ?(record_trace = false) ?pp_msg ?unreliable ?obs
    (algorithm : ('s, 'm) Algorithm.t) ~topology ~scheduler ~inputs =
  let n = Topology.size topology in
  (* Deltas mutate the graph in place; the engine works on a private copy
     so the caller's topology (and any sibling run sharing it) is never
     changed under them. ctx.degree and ctx.diameter snapshot the initial
     graph — churn is invisible to algorithms except through traffic. *)
  let topology =
    if topo_deltas = [] then topology else Topology.copy topology
  in
  List.iter
    (fun (time, _delta) ->
      if time < 0 then
        invalid_arg "Engine.run: negative topology delta time")
    topo_deltas;
  if Array.length inputs <> n then
    invalid_arg "Engine.run: inputs length mismatches topology size";
  (match unreliable with
  | None -> ()
  | Some extra ->
      if Topology.size extra <> n then
        invalid_arg "Engine.run: unreliable graph size mismatches topology";
      List.iter
        (fun (u, v) ->
          if Topology.has_edge topology u v then
            invalid_arg
              (Printf.sprintf
                 "Engine.run: edge (%d,%d) is both reliable and unreliable" u
                 v))
        (Topology.edges extra));
  let identities =
    match identities with
    | Some ids ->
        if Array.length ids <> n then
          invalid_arg "Engine.run: identities length mismatches topology size";
        ids
    | None -> Node_id.identity_assignment ~n ~kind:`Dense
  in
  let render_msg =
    match pp_msg with Some f -> f | None -> fun _ -> "<msg>"
  in
  let ctxs =
    Array.init n (fun i ->
        {
          Algorithm.id = identities.(i);
          n = (if give_n then Some n else None);
          diameter =
            (if give_diameter then Some (Topology.diameter topology) else None);
          degree = Topology.degree topology i;
          input = inputs.(i);
        })
  in
  validate_fault_schedule ~n ~crashes ~recoveries;
  List.iter
    (fun (node, time, _payload) ->
      if node < 0 || node >= n then
        invalid_arg
          (Printf.sprintf "Engine.run: injection node %d out of range [0,%d)"
             node n);
      if time < 0 then
        invalid_arg
          (Printf.sprintf "Engine.run: negative injection time for node %d"
             node))
    injections;
  let queue : 'm event Pqueue.t =
    Pqueue.of_list
      (List.map
         (fun (node, time) -> (key_of ~time (Crash { node }), Crash { node }))
         crashes
      @ List.map
          (fun (node, time) ->
            (key_of ~time (Recover { node }), Recover { node }))
          recoveries
      @ List.map
          (fun (node, time, payload) ->
            (key_of ~time (Inject { node; payload }), Inject { node; payload }))
          injections
      @ List.map
          (fun (time, delta) ->
            (key_of ~time (Topo { delta }), Topo { delta }))
          topo_deltas)
  in
  let track_contention = scheduler.Scheduler.contention_stretch <> None in
  let sim =
    {
      algorithm;
      topology;
      scheduler;
      unreliable;
      render_msg;
      max_time;
      stop_when_all_decided;
      record_trace;
      drop;
      stutter;
      substitute;
      on_inject;
      clock;
      queue;
      states = [||];
      ctxs;
      prov = provenance;
      last_info = Array.make n (-1);
      crashed = Array.make n false;
      crash_time = Array.make n max_int;
      incarnation = Array.make n 0;
      busy = Array.make n false;
      busy_since = Array.make n 0;
      plan_scratch = Array.make n false;
      track_contention;
      on_air = Array.make (if track_contention then n else 0) false;
      air_neighbors = Array.make (if track_contention then n else 0) 0;
      obs =
        (match obs with
        | Some reg ->
            Some
              (make_instruments reg ~algorithm:algorithm.Algorithm.name
                 ~scheduler:scheduler.Scheduler.name ~n)
        | None -> None);
      cobs =
        (match obs with
        | Some reg when track_contention ->
            Some
              (make_contention_instruments reg
                 ~algorithm:algorithm.Algorithm.name
                 ~scheduler:scheduler.Scheduler.name ~n)
        | Some _ | None -> None);
      decisions = Array.make n None;
      extra_decides = [];
      broadcasts = 0;
      deliveries = 0;
      discarded = 0;
      dropped = 0;
      link_dropped = 0;
      stuttered = 0;
      suppressed = 0;
      substituted = 0;
      max_ids = 0;
      unreliable_deliveries = 0;
      injected = 0;
      topo_changes = 0;
      events_processed = 0;
      end_time = 0;
      hit_max_time = false;
      trace = [];
      live_undecided = n;
      stopped = false;
    }
  in
  (match clock with Some r -> r := 0 | None -> ());
  (* Initialise every node at time 0, in index order, interleaving each
     node's init with its first actions (scheduler plan calls must stay in
     node order for stateful schedulers). Init actions never read [states],
     so the placeholder array is safe; all mutations land before the
     functional update below copies the field values. *)
  let states =
    Array.init n (fun i ->
        prov_root sim
          ~kind:(Obs.Provenance.Boot { incarnation = 0 })
          ~node:i ~time:0;
        let state, actions = algorithm.init ctxs.(i) in
        apply_actions_faulted ~now:0 sim i actions;
        state)
  in
  { sim with states }

let step sim =
  if sim.stopped then `Done
  else if Pqueue.is_empty sim.queue then begin
    sim.stopped <- true;
    `Done
  end
  else begin
    (match sim.obs with
    | Some i ->
        Obs.Metrics.observe_max i.pqueue_depth_max
          (float_of_int (Pqueue.length sim.queue))
    | None -> ());
    let key, event = Pqueue.pop sim.queue in
    let now = time_of_key key in
    if now > sim.max_time then begin
      sim.hit_max_time <- true;
      sim.stopped <- true;
      `Capped
    end
    else begin
      sim.events_processed <- sim.events_processed + 1;
      obs_counter sim (fun i -> i.events_total);
      sim.end_time <- now;
      (match sim.clock with Some r -> r := now | None -> ());
      (match sim.obs with
      | Some i -> Obs.Metrics.set i.end_time_gauge (float_of_int now)
      | None -> ());
      (match event with
      | Crash { node } ->
          if not sim.crashed.(node) then begin
            end_transmission sim node;
            sim.crashed.(node) <- true;
            sim.crash_time.(node) <- now;
            if sim.decisions.(node) = None then
              sim.live_undecided <- sim.live_undecided - 1;
            obs_counter sim (fun i -> i.crashes_total);
            log sim (Trace.Crashed { time = now; node })
          end
      | Recover { node } ->
          if sim.crashed.(node) then begin
            (* Amnesiac restart: fresh state, a new incarnation number (so
               anything still in flight to or from the old incarnation is
               recognised as stale), and [init] runs again as if the node
               just booted. Prior decisions stay in [decisions] — the
               checker treats a decide as irrevocable, so a recovered node
               re-deciding differently surfaces as an extra_decide. *)
            sim.crashed.(node) <- false;
            sim.crash_time.(node) <- max_int;
            sim.incarnation.(node) <- sim.incarnation.(node) + 1;
            sim.busy.(node) <- false;
            if sim.decisions.(node) = None then
              sim.live_undecided <- sim.live_undecided + 1;
            obs_counter sim (fun i -> i.recoveries_total);
            log sim
              (Trace.Recovered
                 { time = now; node; incarnation = sim.incarnation.(node) });
            (* The reborn incarnation's [init] is a fresh causal root: its
               amnesiac state owes nothing to pre-crash events. *)
            prov_root sim
              ~kind:
                (Obs.Provenance.Boot { incarnation = sim.incarnation.(node) })
              ~node ~time:now;
            let state, actions = sim.algorithm.init sim.ctxs.(node) in
            sim.states.(node) <- state;
            apply_actions_faulted ~now sim node actions
          end
      | Receive { node; receiver_inc; sender; sender_inc; msg; cause } ->
          if sim.crashed.(node) || receiver_inc <> sim.incarnation.(node) then begin
            sim.dropped <- sim.dropped + 1;
            obs_counter sim (fun i -> i.drops_stale)
          end
          else if
            sim.crash_time.(sender) <= now
            || sender_inc <> sim.incarnation.(sender)
          then begin
            (* The sender crashed mid-broadcast before this delivery (or
               has since restarted as a new incarnation). *)
            sim.dropped <- sim.dropped + 1;
            obs_counter sim (fun i -> i.drops_stale)
          end
          else if
            match sim.drop with
            | Some f -> f ~now ~sender ~receiver:node
            | None -> false
          then begin
            sim.link_dropped <- sim.link_dropped + 1;
            obs_counter sim (fun i -> i.drops_link);
            log sim (Trace.Link_dropped { time = now; node; sender })
          end
          else begin
            (* Adversary hook: a Byzantine sender's payload may differ per
               recipient ([Some msg'], equivocation/forgery — physical
               inequality is what counts as tampering, so an identity
               substitution stays invisible) or never arrive at all ([None],
               selective silence). Honest traffic passes through untouched.
               The sender's ack is never affected: the MAC layer kept its
               contract; the *transmitter* lied. *)
            let delivered =
              match sim.substitute with
              | None -> Some msg
              | Some f -> f ~now ~sender ~receiver:node msg
            in
            match delivered with
            | None ->
                sim.suppressed <- sim.suppressed + 1;
                log sim (Trace.Suppressed { time = now; node; sender })
            | Some msg' ->
                if not (msg' == msg) then begin
                  sim.substituted <- sim.substituted + 1;
                  if sim.record_trace then
                    log sim
                      (Trace.Substituted
                         {
                           time = now;
                           node;
                           sender;
                           msg = sim.render_msg msg';
                         })
                end;
                sim.deliveries <- sim.deliveries + 1;
                obs_counter sim (fun i -> i.deliveries_total);
                (* The Deliver vertex is caused by the broadcast that put it
                   on the wire, and becomes the receiver's latest
                   informational event. The trace entry carries the
                   *broadcast's* vertex id: what caused this delivery. *)
                (if sim.prov <> None then
                   let did =
                     prov_record sim
                       ~kind:(Obs.Provenance.Deliver { sender })
                       ~node ~time:now ~cause
                   in
                   sim.last_info.(node) <- did);
                if sim.record_trace then
                  log sim
                    (Trace.Delivered
                       {
                         time = now;
                         node;
                         sender;
                         msg = sim.render_msg msg';
                         cause;
                       });
                let actions =
                  sim.algorithm.on_receive sim.ctxs.(node) sim.states.(node)
                    msg'
                in
                apply_actions_faulted ~now sim node actions
          end
      | Ack { node; inc; cause } ->
          if (not sim.crashed.(node)) && inc = sim.incarnation.(node) then begin
            end_transmission sim node;
            sim.busy.(node) <- false;
            obs_counter sim (fun i -> i.acks_total);
            obs_hist sim (fun i -> i.ack_latency) (now - sim.busy_since.(node));
            obs_hist sim
              (fun i -> i.ack_latency_by_node.(node))
              (now - sim.busy_since.(node));
            ignore
              (prov_record sim ~kind:Obs.Provenance.Ack ~node ~time:now ~cause);
            if sim.record_trace then log sim (Trace.Acked { time = now; node });
            let actions = sim.algorithm.on_ack sim.ctxs.(node) sim.states.(node) in
            apply_actions_faulted ~now sim node actions
          end
      | Inject { node; payload } ->
          (* Lost (not buffered) if the node is down — clients of a crashed
             replica get no service; with no [on_inject] handler the event
             is inert. *)
          if sim.crashed.(node) then begin
            sim.dropped <- sim.dropped + 1;
            obs_counter sim (fun i -> i.drops_stale)
          end
          else begin
            match sim.on_inject with
            | None -> ()
            | Some f ->
                sim.injected <- sim.injected + 1;
                prov_root sim
                  ~kind:(Obs.Provenance.Inject { payload })
                  ~node ~time:now;
                let actions =
                  f ~now ~payload sim.ctxs.(node) sim.states.(node)
                in
                apply_actions_faulted ~now sim node actions
          end
      | Topo { delta } ->
          (* Keep the air_neighbors invariant exact under mutation: an
             endpoint already on air starts (or stops) loading the other
             endpoint the instant the edge appears (or vanishes). In-flight
             deliveries over a removed edge still land — the message was
             already on the wire. *)
          Topology.apply_delta sim.topology delta;
          (if sim.track_contention then
             match delta with
             | Topology.Add_edge (u, v) ->
                 if sim.on_air.(u) then
                   sim.air_neighbors.(v) <- sim.air_neighbors.(v) + 1;
                 if sim.on_air.(v) then
                   sim.air_neighbors.(u) <- sim.air_neighbors.(u) + 1
             | Topology.Remove_edge (u, v) ->
                 if sim.on_air.(u) then
                   sim.air_neighbors.(v) <- sim.air_neighbors.(v) - 1;
                 if sim.on_air.(v) then
                   sim.air_neighbors.(u) <- sim.air_neighbors.(u) - 1);
          sim.topo_changes <- sim.topo_changes + 1);
      if sim.stop_when_all_decided && sim.live_undecided = 0 then
        sim.stopped <- true;
      `Stepped
    end
  end

(* Called once, after the loop: the outcome takes the arrays over. *)
let snapshot sim =
  {
    decisions = sim.decisions;
    extra_decides = List.rev sim.extra_decides;
    crashed = sim.crashed;
    incarnations = sim.incarnation;
    broadcasts = sim.broadcasts;
    deliveries = sim.deliveries;
    discarded = sim.discarded;
    dropped = sim.dropped;
    link_dropped = sim.link_dropped;
    stuttered = sim.stuttered;
    suppressed = sim.suppressed;
    substituted = sim.substituted;
    max_ids_per_message = sim.max_ids;
    unreliable_deliveries = sim.unreliable_deliveries;
    injected = sim.injected;
    topo_changes = sim.topo_changes;
    end_time = sim.end_time;
    events_processed = sim.events_processed;
    hit_max_time = sim.hit_max_time;
    provenance = sim.prov;
    trace = List.rev sim.trace;
  }

let run ?identities ?give_n ?give_diameter ?crashes ?recoveries ?drop ?stutter
    ?substitute ?injections ?on_inject ?topo_deltas ?clock ?max_time
    ?stop_when_all_decided ?provenance ?record_trace ?pp_msg ?unreliable ?obs
    algorithm ~topology ~scheduler ~inputs =
  let sim =
    create ?identities ?give_n ?give_diameter ?crashes ?recoveries ?drop
      ?stutter ?substitute ?injections ?on_inject ?topo_deltas ?clock
      ?max_time ?stop_when_all_decided ?provenance ?record_trace ?pp_msg
      ?unreliable ?obs algorithm ~topology ~scheduler ~inputs
  in
  let continue = ref true in
  while !continue do
    match step sim with `Stepped -> () | `Done | `Capped -> continue := false
  done;
  snapshot sim
