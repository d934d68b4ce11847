type 'm t =
  | Step of { depth : int }
  | Capped of { depth : int }
  | Boot of { node : int; incarnation : int }
  | Crash of { node : int }
  | Inject of { node : int; payload : int }
  | Broadcast of { node : int; ids : int; msg : 'm }
  | Discard of { node : int; msg : 'm }
  | Contention of { node : int; contention : int; stretch : int }
  | Unreliable
  | Deliver of { node : int; sender : int; msg : 'm; substituted : bool }
  | Stale
  | Link_drop of { node : int; sender : int }
  | Suppress of { node : int; sender : int }
  | Ack of { node : int }
  | Decide of { node : int; value : int }
  | Stutter of { node : int; actions : int }

type 'm observer = time:int -> 'm t -> unit

let metrics reg ~algorithm ~scheduler ~n ~interference =
  let labels = [ ("algorithm", algorithm); ("scheduler", scheduler) ] in
  let node_labels i = ("node", string_of_int i) :: labels in
  let counter name = Metrics.counter reg ~labels name in
  let hist name = Metrics.histogram reg ~labels name in
  let node_hists name =
    Array.init n (fun i -> Metrics.histogram reg ~labels:(node_labels i) name)
  in
  let events = counter "engine_events_total" in
  let deliveries = counter "engine_deliveries_total" in
  let acks = counter "engine_acks_total" in
  let drops reason =
    Metrics.counter reg ~labels:(("reason", reason) :: labels)
      "engine_drops_total"
  in
  let drops_stale = drops "stale" and drops_link = drops "link" in
  let discards = counter "engine_discards_total" in
  let stutters = counter "engine_stutters_total" in
  let crashes = counter "engine_crashes_total" in
  let recoveries = counter "engine_recoveries_total" in
  let unreliable = counter "engine_unreliable_deliveries_total" in
  let broadcasts =
    Array.init n (fun i ->
        Metrics.counter reg ~labels:(node_labels i) "engine_broadcasts_total")
  in
  let depth_max = Metrics.gauge reg ~labels "engine_pqueue_depth_max" in
  let end_time = Metrics.gauge reg ~labels "engine_end_time" in
  let ack_latency = hist "engine_ack_latency_ticks" in
  let decide_latency = hist "engine_decide_latency_ticks" in
  let ack_latency_by_node = node_hists "engine_ack_latency_ticks" in
  let decide_latency_by_node = node_hists "engine_decide_latency_ticks" in
  (* The interference families exist only when the scheduler stretches
     acks, so contention-free runs keep byte-identical snapshots. *)
  let contention =
    if not interference then None
    else
      Some
        ( hist "engine_contention_neighbors",
          Metrics.gauge reg ~labels "engine_contention_max",
          hist "engine_ack_stretch_ticks",
          node_hists "engine_ack_stretch_ticks" )
  in
  (* per node, the start time of its in-flight broadcast *)
  let busy_since = Array.make n 0 in
  let observe h v = Metrics.observe h (float_of_int v) in
  fun ~time -> function
    | Step { depth } ->
        Metrics.observe_max depth_max (float_of_int depth);
        Metrics.inc events;
        Metrics.set end_time (float_of_int time)
    | Capped { depth } -> Metrics.observe_max depth_max (float_of_int depth)
    | Boot { incarnation; _ } -> if incarnation > 0 then Metrics.inc recoveries
    | Crash _ -> Metrics.inc crashes
    | Broadcast { node; _ } ->
        busy_since.(node) <- time;
        Metrics.inc broadcasts.(node)
    | Discard _ -> Metrics.inc discards
    | Contention { node; contention = c; stretch } -> (
        match contention with
        | Some (c_hist, c_max, s_hist, s_by_node) ->
            observe c_hist c;
            Metrics.observe_max c_max (float_of_int c);
            observe s_hist stretch;
            observe s_by_node.(node) stretch
        | None -> ())
    | Unreliable -> Metrics.inc unreliable
    | Deliver _ -> Metrics.inc deliveries
    | Stale -> Metrics.inc drops_stale
    | Link_drop _ -> Metrics.inc drops_link
    | Ack { node } ->
        Metrics.inc acks;
        observe ack_latency (time - busy_since.(node));
        observe ack_latency_by_node.(node) (time - busy_since.(node))
    | Decide { node; _ } ->
        observe decide_latency time;
        observe decide_latency_by_node.(node) time
    | Stutter { actions; _ } -> Metrics.add stutters actions
    | Inject _ | Suppress _ -> ()
