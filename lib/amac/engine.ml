open Obs

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
  trace : Trace.entry list;
}

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
   crashing and recovering at the same instant), all deliveries of a tick
   land before any ack of that tick (the model requires every neighbor to
   receive before the sender's ack), then injections, then topology deltas
   (churn/mobility, slotted after every pre-existing kind so runs without
   deltas keep their exact event order). *)
type kind = Crash | Recover | Receive | Ack | Inject | Topo

(* Event-queue keys encode (time, kind priority), eight keys per tick; the
   queue breaks remaining ties by insertion order, making runs bit-for-bit
   deterministic. *)
let keys_per_tick = 8

let priority = function
  | Crash -> 0
  | Recover -> 1
  | Receive -> 2
  | Ack -> 3
  | Inject -> 4
  | Topo -> 5

let kind_of_key key =
  match key land (keys_per_tick - 1) with
  | 0 -> Crash
  | 1 -> Recover
  | 2 -> Receive
  | 3 -> Ack
  | 4 -> Inject
  | _ -> Topo

let time_of_key key = key / keys_per_tick

(* Queued events are int descriptors: slots of one pooled int array, four
   words each — the node the event concerns, then up to three ints whose
   meaning the kind (carried in the key, not the slot) fixes:

   - [Crash], [Recover]: nothing more;
   - [Receive]: the receiver's incarnation, the sender and the sender's
     incarnation at scheduling time;
   - [Ack]: the sender's incarnation at scheduling time;
   - [Inject]: the payload (no incarnation: an injection targets whichever
     incarnation is up at pop time, and is lost if the node is down);
   - [Topo]: the other endpoint, then 0 to add the edge or 1 to remove it.

   A recovery invalidates everything in flight to or from the previous
   incarnation, so the incarnation stamps let stale events be recognised
   and dropped when popped. A [Receive] carries no message: Sec 2 allows a
   sender one broadcast in flight, so a delivery that is not stale belongs
   to its sender's in-flight broadcast, whose message the engine keeps per
   sender (see [in_flight]).

   A free slot's first word links the free list. A slot is freed as its
   event is popped, so the pool grows only to the most events ever queued
   at once. *)
module Pool = struct
  type t = { mutable words : int array; mutable free : int }

  let width = 4

  (* Slots [from, capacity) join the free list, in order. *)
  let thread t from =
    let capacity = Array.length t.words / width in
    for s = from to capacity - 2 do
      t.words.(s * width) <- s + 1
    done;
    t.words.((capacity - 1) * width) <- t.free;
    t.free <- from

  let create capacity =
    let t = { words = Array.make (max 1 capacity * width) 0; free = -1 } in
    thread t 0;
    t

  let alloc t node a b c =
    if t.free < 0 then begin
      let capacity = Array.length t.words / width in
      t.words <- Array.append t.words (Array.make (capacity * width) 0);
      thread t capacity
    end;
    let s = t.free in
    let i = s * width in
    t.free <- t.words.(i);
    t.words.(i) <- node;
    t.words.(i + 1) <- a;
    t.words.(i + 2) <- b;
    t.words.(i + 3) <- c;
    s

  let release t s =
    t.words.(s * width) <- t.free;
    t.free <- s
end

(* The event queue's ring covers the keys of the current tick and the next
   5 F_ack: a plan lands within F_ack, and the interference stretch's
   default cap is 4 F_ack. Anything later (pre-scheduled events, a larger
   stretch) waits in the queue's overflow. The ceiling keeps a scheduler
   with a huge F_ack from allocating a huge ring. *)
let queue_span (scheduler : Scheduler.t) =
  min 4096 (keys_per_tick * ((5 * scheduler.fack) + 1))

(* All the run state [run] advances one event at a time. Every observable
   step is also announced as one [Event.t] to [observe] — the recorders
   (trace, provenance, metrics) are folds over that stream. Each emit site
   tests [observing] first, so an unobserved run allocates no event. *)
type ('s, 'm) sim = {
  algorithm : ('s, 'm) Algorithm.t;
  topology : Topology.t;
  scheduler : Scheduler.t;
  unreliable : Topology.t option;
  drop : (now:int -> sender:int -> receiver:int -> bool) option;
  stutter : (now:int -> node:int -> bool) option;
  substitute : (now:int -> sender:int -> receiver:int -> 'm -> 'm option) option;
  on_inject :
    (now:int -> payload:int -> Algorithm.ctx -> 's -> 'm Algorithm.action list)
    option;
  observing : bool;
  observe : 'm Event.observer;
  queue : Bucket_queue.t;  (* of [events] slots *)
  events : Pool.t;
  mutable in_flight : 'm array;
      (* per sender, the message of its latest accepted broadcast — what
         its queued deliveries deliver; [||] until the first broadcast *)
  mutable states : 's array;  (* [||] until every node has booted *)
  ctxs : Algorithm.ctx array;
  crashed : bool array;
  crash_time : int array;
  incarnation : int array;
  busy : bool array;
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
  mutable live_undecided : int;
}

(* End of a transmission for contention purposes: the ack arrived, or the
   sender crashed mid-broadcast (a dead radio stops loading the channel;
   its already-scheduled deliveries at or after the crash are dropped by
   the stale-sender check anyway). Decrementing over the *current* neighbor
   set is exact even under topology deltas, because delta application
   adjusts [air_neighbors] for on-air endpoints (see the [Topo] case). *)
let rec shift_air air step = function
  | [] -> ()
  | w :: rest ->
      air.(w) <- air.(w) + step;
      shift_air air step rest

let end_transmission sim node =
  if sim.track_contention && sim.on_air.(node) then begin
    sim.on_air.(node) <- false;
    shift_air sim.air_neighbors (-1) (Topology.neighbors sim.topology node)
  end

let schedule sim ~time kind node a b c =
  Bucket_queue.add sim.queue
    ~key:((time * keys_per_tick) + priority kind)
    (Pool.alloc sim.events node a b c)

(* [v] is a node whose scratch mark is set. *)
let is_marked sim v =
  v >= 0 && v < Array.length sim.plan_scratch && sim.plan_scratch.(v)

let rec mark_all scratch count = function
  | [] -> count
  | v :: rest ->
      scratch.(v) <- true;
      mark_all scratch (count + 1) rest

(* Consume one mark per planned delivery: duplicates and non-neighbors hit
   an unmarked slot. Returns how many were consumed. *)
let rec consume_marks sim count = function
  | [] -> count
  | (receiver, _) :: rest ->
      if not (is_marked sim receiver) then
        invalid_arg
          "Engine.run: scheduler must deliver to exactly the neighbor set";
      sim.plan_scratch.(receiver) <- false;
      consume_marks sim (count + 1) rest

(* Queue one delivery of [sender]'s in-flight broadcast, [time] already
   shifted by the stretch. Every delivery lands in (now, ack_at]: with one
   broadcast in flight per sender, a delivery or ack belongs to its
   sender's latest broadcast, so queued events need not name the
   broadcast. *)
let enqueue_receive ~now sim ~ack_at ~sender receiver time =
  if time <= now || time > ack_at then
    invalid_arg
      (Printf.sprintf
         "Engine.run: delivery time %d outside (broadcast %d, ack %d]" time now
         ack_at);
  schedule sim ~time Receive receiver sim.incarnation.(receiver) sender
    sim.incarnation.(sender)

let rec enqueue_receives ~now sim ~ack_at ~sender ~stretch = function
  | [] -> ()
  | (receiver, time) :: rest ->
      enqueue_receive ~now sim ~ack_at ~sender receiver (time + stretch);
      enqueue_receives ~now sim ~ack_at ~sender ~stretch rest

let do_broadcast ~now sim sender msg =
  if sim.busy.(sender) then begin
    sim.discarded <- sim.discarded + 1;
    if sim.observing then
      sim.observe ~time:now (Event.Discard { node = sender; msg })
  end
  else begin
    sim.busy.(sender) <- true;
    if Array.length sim.in_flight = 0 then
      sim.in_flight <- Array.make (Array.length sim.busy) msg
    else sim.in_flight.(sender) <- msg;
    sim.broadcasts <- sim.broadcasts + 1;
    let ids = sim.algorithm.msg_ids msg in
    if ids > sim.max_ids then sim.max_ids <- ids;
    if sim.observing then
      sim.observe ~time:now (Event.Broadcast { node = sender; ids; msg });
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
        if sim.observing then
          sim.observe ~time:now
            (Event.Contention { node = sender; contention; stretch = s });
        sim.on_air.(sender) <- true;
        shift_air sim.air_neighbors 1 neighbors;
        s
      end
    in
    let plan = sim.scheduler.Scheduler.plan ~now ~sender ~neighbors in
    (* Assert the scheduler respects the MAC layer contract. The base plan
       is checked against F_ack *before* any contention stretch: in
       interference mode the effective bound is F_ack + stretch, and the
       stretch is added to each delivery and the ack as they are queued. *)
    if plan.Scheduler.ack_at > now + sim.scheduler.Scheduler.fack then
      invalid_arg
        (Printf.sprintf
           "Engine.run: scheduler %s acked at %d for broadcast at %d \
            (F_ack=%d)"
           sim.scheduler.Scheduler.name plan.Scheduler.ack_at now
           sim.scheduler.Scheduler.fack);
    if plan.Scheduler.ack_at <= now then
      invalid_arg "Engine.run: ack must be strictly after the broadcast";
    let ack_at = plan.Scheduler.ack_at + stretch in
    (* Set-equality check against the neighbor set over the preallocated
       scratch marks: mark every neighbor, consume one mark per planned
       delivery. A missing neighbor leaves the consumed count short —
       O(degree) with no per-broadcast list or sort allocation. *)
    let marked = mark_all sim.plan_scratch 0 neighbors in
    let consumed = consume_marks sim 0 plan.Scheduler.receives in
    if consumed <> marked then begin
      List.iter (fun v -> sim.plan_scratch.(v) <- false) neighbors;
      invalid_arg
        "Engine.run: scheduler must deliver to exactly the neighbor set"
    end;
    enqueue_receives ~now sim ~ack_at ~sender ~stretch plan.Scheduler.receives;
    (* Unreliable edges: the scheduler may additionally deliver to any
       subset of the sender's unreliable neighbors, at any time within
       the (stretched) broadcast window; these deliveries are not shifted.
       They never gate the ack. *)
    (match (sim.unreliable, sim.scheduler.Scheduler.unreliable_plan) with
    | Some extra, Some unreliable_plan ->
        let candidates = Topology.neighbors extra sender in
        if candidates <> [] then begin
          let chosen = unreliable_plan ~now ~sender ~candidates ~ack_at in
          (* Candidate membership via the scratch marks (marks are not
             consumed: the plan may legitimately deliver twice to one
             candidate), so validating the chosen list is O(candidates +
             chosen) instead of the quadratic List.mem scan the 1000-node
             allocation audit flagged. *)
          List.iter (fun v -> sim.plan_scratch.(v) <- true) candidates;
          (try
             List.iter
               (fun (receiver, time) ->
                 if not (is_marked sim receiver) then
                   invalid_arg
                     "Engine.run: unreliable delivery to a non-candidate";
                 enqueue_receive ~now sim ~ack_at ~sender receiver time;
                 sim.unreliable_deliveries <- sim.unreliable_deliveries + 1;
                 if sim.observing then sim.observe ~time:now Event.Unreliable)
               chosen
           with e ->
             List.iter (fun v -> sim.plan_scratch.(v) <- false) candidates;
             raise e);
          List.iter (fun v -> sim.plan_scratch.(v) <- false) candidates
        end
    | None, _ | _, None -> ());
    schedule sim ~time:ack_at Ack sender sim.incarnation.(sender) 0 0
  end

let handle_decide ~now sim node value =
  match sim.decisions.(node) with
  | None ->
      sim.decisions.(node) <- Some (value, now);
      sim.live_undecided <- sim.live_undecided - 1;
      if sim.observing then
        sim.observe ~time:now (Event.Decide { node; value })
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
      if sim.observing then
        sim.observe ~time:now (Event.Stutter { node; actions = count })
    end
  end
  else apply_actions ~now sim node actions

(* Run [node]'s [init] as its current incarnation — at time 0, and again on
   every recovery — and return the fresh state. *)
let boot ~now sim node =
  if sim.observing then
    sim.observe ~time:now
      (Event.Boot { node; incarnation = sim.incarnation.(node) });
  let state, actions = sim.algorithm.init sim.ctxs.(node) in
  apply_actions_faulted ~now sim node actions;
  state

let drop_stale ~now sim =
  sim.dropped <- sim.dropped + 1;
  if sim.observing then sim.observe ~time:now Event.Stale

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

let deliver_msg ~now sim node sender msg ~substituted =
  sim.deliveries <- sim.deliveries + 1;
  if sim.observing then
    sim.observe ~time:now (Event.Deliver { node; sender; msg; substituted });
  let actions = sim.algorithm.on_receive sim.ctxs.(node) sim.states.(node) msg in
  apply_actions_faulted ~now sim node actions

(* A delivery that survived the stale and link-fault checks. Adversary
   hook: a Byzantine sender's payload may differ per recipient ([Some
   msg'], equivocation/forgery — physical inequality is what counts as
   tampering, so an identity substitution stays invisible) or never arrive
   at all ([None], selective silence). Honest traffic passes through
   untouched. The sender's ack is never affected: the MAC layer kept its
   contract; the *transmitter* lied. *)
let deliver ~now sim node sender msg =
  match sim.substitute with
  | None -> deliver_msg ~now sim node sender msg ~substituted:false
  | Some f -> (
      match f ~now ~sender ~receiver:node msg with
      | None ->
          sim.suppressed <- sim.suppressed + 1;
          if sim.observing then
            sim.observe ~time:now (Event.Suppress { node; sender })
      | Some msg' ->
          let substituted = not (msg' == msg) in
          if substituted then sim.substituted <- sim.substituted + 1;
          deliver_msg ~now sim node sender msg' ~substituted)

(* Process the event in pool slot [slot]. The slot is read and freed
   first: the handlers it runs queue new events. *)
let process ~now sim kind slot =
  let words = sim.events.Pool.words and i = slot * Pool.width in
  let node = words.(i) and a = words.(i + 1) in
  let b = words.(i + 2) and c = words.(i + 3) in
  Pool.release sim.events slot;
  match kind with
  | Crash ->
      if not sim.crashed.(node) then begin
        end_transmission sim node;
        sim.crashed.(node) <- true;
        sim.crash_time.(node) <- now;
        if sim.decisions.(node) = None then
          sim.live_undecided <- sim.live_undecided - 1;
        if sim.observing then sim.observe ~time:now (Event.Crash { node })
      end
  | Recover ->
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
        sim.states.(node) <- boot ~now sim node
      end
  | Receive ->
      let receiver_inc = a and sender = b and sender_inc = c in
      if
        sim.crashed.(node)
        || receiver_inc <> sim.incarnation.(node)
        (* the sender crashed mid-broadcast before this delivery, or has
           since restarted as a new incarnation *)
        || sim.crash_time.(sender) <= now
        || sender_inc <> sim.incarnation.(sender)
      then drop_stale ~now sim
      else if
        match sim.drop with
        | Some f -> f ~now ~sender ~receiver:node
        | None -> false
      then begin
        sim.link_dropped <- sim.link_dropped + 1;
        if sim.observing then
          sim.observe ~time:now (Event.Link_drop { node; sender })
      end
      else
        (* Not stale, so the sender's incarnation is the one that queued
           this delivery and it has not crashed since: its broadcast is
           still in flight (its ack is queued after every delivery), and
           [in_flight] still holds that broadcast's message. *)
        deliver ~now sim node sender sim.in_flight.(sender)
  | Ack ->
      if (not sim.crashed.(node)) && a = sim.incarnation.(node) then begin
        end_transmission sim node;
        sim.busy.(node) <- false;
        if sim.observing then sim.observe ~time:now (Event.Ack { node });
        let actions = sim.algorithm.on_ack sim.ctxs.(node) sim.states.(node) in
        apply_actions_faulted ~now sim node actions
      end
  | Inject -> (
      (* Lost (not buffered) if the node is down — clients of a crashed
         replica get no service; with no [on_inject] handler the event
         is inert. *)
      let payload = a in
      if sim.crashed.(node) then drop_stale ~now sim
      else
        match sim.on_inject with
        | None -> ()
        | Some f ->
            sim.injected <- sim.injected + 1;
            if sim.observing then
              sim.observe ~time:now (Event.Inject { node; payload });
            let actions = f ~now ~payload sim.ctxs.(node) sim.states.(node) in
            apply_actions_faulted ~now sim node actions)
  | Topo ->
      (* Keep the air_neighbors invariant exact under mutation: an
         endpoint already on air starts (or stops) loading the other
         endpoint the instant the edge appears (or vanishes). In-flight
         deliveries over a removed edge still land — the message was
         already on the wire. *)
      let u = node and v = a in
      Topology.apply_delta sim.topology
        (if b = 0 then Topology.Add_edge (u, v) else Topology.Remove_edge (u, v));
      if sim.track_contention then begin
        let step = if b = 0 then 1 else -1 in
        if sim.on_air.(u) then
          sim.air_neighbors.(v) <- sim.air_neighbors.(v) + step;
        if sim.on_air.(v) then
          sim.air_neighbors.(u) <- sim.air_neighbors.(u) + step
      end;
      sim.topo_changes <- sim.topo_changes + 1

(* The recorders the caller asked for, as one observer: the provenance fold
   (whose in-flight-broadcast lookup gives trace entries their causes), the
   trace fold and the metrics fold. [None] when nothing observes. *)
let recorders ~n ?provenance ~record_trace ?pp_msg ?obs ~interference
    (algorithm : _ Algorithm.t) scheduler =
  let prov, cause =
    match provenance with
    | Some dag ->
        let observe, cause = Provenance.observer dag ~n in
        ([ observe ], cause)
    | None -> ([], fun _ -> -1)
  in
  let trace, entries =
    if record_trace then
      let pp_msg = Option.value pp_msg ~default:(fun _ -> "<msg>") in
      let observe, entries = Trace.observer ~n ~pp_msg ~cause in
      ([ observe ], entries)
    else ([], fun () -> [])
  in
  let metrics =
    match obs with
    | Some reg ->
        [
          Event.metrics reg ~algorithm:algorithm.name
            ~scheduler:scheduler.Scheduler.name ~n ~interference;
        ]
    | None -> []
  in
  let both first second ~time event =
    first ~time event;
    second ~time event
  in
  let observe =
    match prov @ trace @ metrics with
    | [] -> None
    | first :: rest -> Some (List.fold_left both first rest)
  in
  (observe, entries)

let run ?identities ?(give_n = true) ?(give_diameter = false)
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
  (* Endpoints are checked here, as for crashes and injections, so a bad
     delta fails even when the run stops before its time comes. Presence
     and absence depend on the deltas before it and are checked when it
     applies. *)
  List.iter
    (fun (time, delta) ->
      if time < 0 then
        invalid_arg "Engine.run: negative topology delta time";
      let (Topology.Add_edge (u, v) | Topology.Remove_edge (u, v)) = delta in
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf
             "Engine.run: topology delta edge (%d,%d) out of range [0,%d)" u v
             n);
      if u = v then
        invalid_arg
          (Printf.sprintf "Engine.run: topology delta self-loop at node %d" u))
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
  (* One all-pairs BFS for the whole run, not one per node. *)
  let diameter =
    if give_diameter && n > 0 then Some (Topology.diameter topology) else None
  in
  let ctxs =
    Array.init n (fun i ->
        {
          Algorithm.id = identities.(i);
          n = (if give_n then Some n else None);
          diameter;
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
  let track_contention = scheduler.Scheduler.contention_stretch <> None in
  let observe, trace =
    recorders ~n ?provenance ~record_trace ?pp_msg ?obs
      ~interference:track_contention algorithm scheduler
  in
  let sim =
    {
      algorithm;
      topology;
      scheduler;
      unreliable;
      drop;
      stutter;
      substitute;
      on_inject;
      observing = observe <> None;
      observe = Option.value observe ~default:(fun ~time:_ _ -> ());
      queue = Bucket_queue.create ~span:(queue_span scheduler);
      events =
        (* Room for every pre-scheduled event and, per node, one broadcast's
           deliveries and ack, twice over: the pool rarely grows, and then
           by doubling what is in flight rather than the whole schedule. *)
        Pool.create
          (List.length crashes + List.length recoveries
          + List.length injections + List.length topo_deltas
          + (2 * Array.fold_left (fun acc c -> acc + c.Algorithm.degree + 1) 0 ctxs));
      in_flight = [||];
      states = [||];
      ctxs;
      crashed = Array.make n false;
      crash_time = Array.make n max_int;
      incarnation = Array.make n 0;
      busy = Array.make n false;
      plan_scratch = Array.make n false;
      track_contention;
      on_air = Array.make (if track_contention then n else 0) false;
      air_neighbors = Array.make (if track_contention then n else 0) 0;
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
      live_undecided = n;
    }
  in
  List.iter (fun (node, time) -> schedule sim ~time Crash node 0 0 0) crashes;
  List.iter
    (fun (node, time) -> schedule sim ~time Recover node 0 0 0)
    recoveries;
  List.iter
    (fun (node, time, payload) -> schedule sim ~time Inject node payload 0 0)
    injections;
  List.iter
    (fun (time, delta) ->
      match delta with
      | Topology.Add_edge (u, v) -> schedule sim ~time Topo u v 0 0
      | Topology.Remove_edge (u, v) -> schedule sim ~time Topo u v 1 0)
    topo_deltas;
  (match clock with Some r -> r := 0 | None -> ());
  (* Initialise every node at time 0, in index order, interleaving each
     node's init with its first actions (scheduler plan calls must stay in
     node order for stateful schedulers). Init actions never read
     [states]. *)
  sim.states <- Array.init n (boot ~now:0 sim);
  let events_processed = ref 0 and end_time = ref 0 in
  (* Pop until the queue drains, every live node has decided, or an event
     lies past [max_time]: that one stays unprocessed, and [loop] returns
     [true] for a capped run. *)
  let rec loop () =
    if Bucket_queue.is_empty sim.queue then false
    else begin
      let slot = Bucket_queue.pop sim.queue in
      let key = Bucket_queue.popped_key sim.queue in
      let now = time_of_key key in
      let depth = Bucket_queue.length sim.queue + 1 in
      if now > max_time then begin
        if sim.observing then sim.observe ~time:now (Event.Capped { depth });
        true
      end
      else begin
        incr events_processed;
        end_time := now;
        (match clock with Some r -> r := now | None -> ());
        if sim.observing then sim.observe ~time:now (Event.Step { depth });
        process ~now sim (kind_of_key key) slot;
        if stop_when_all_decided && sim.live_undecided = 0 then false
        else loop ()
      end
    end
  in
  let hit_max_time = loop () in
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
    end_time = !end_time;
    events_processed = !events_processed;
    hit_max_time;
    trace = trace ();
  }
