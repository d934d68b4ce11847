type mode =
  | Open_loop of { mean_gap : int }
  | Closed_loop of { clients_per_node : int }

type result = {
  outcome : Amac.Engine.outcome;
  handle : Smr.handle;
  violations : Smr_checker.violation list;
  issued : int;
  submitted : int;
  committed : int;
  commit_index_min : int;
  commit_index_max : int;
  latencies : int array;
  queue_latencies : int array;
  replicate_latencies : int array;
  epoch_min : int;
  epoch_max : int;
  suspicions : int;
  snapshots_taken : int;
  snapshots_installed : int;
}

let quantile sorted ~q =
  if q <= 0.0 || q > 1.0 then invalid_arg "Workload.quantile: q outside (0, 1]";
  let len = Array.length sorted in
  if len = 0 then None
  else
    let rank = int_of_float (ceil (q *. float_of_int len)) in
    Some sorted.(max 0 (min (len - 1) (rank - 1)))

(* Inverse-CDF exponential, floored at 1 tick: one uniform draw. *)
let exp_gap rng ~mean_gap =
  let u = Amac.Rng.float rng 1.0 in
  max 1 (int_of_float (-.float_of_int mean_gap *. log (1.0 -. u)))

(* Latencies are simulation ticks, typically a few F_ack windows up to a
   few retry epochs; the default seconds-scale buckets would lump
   everything into +Inf. *)
let latency_buckets =
  [ 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1000.; 2000.; 5000.; 20_000. ]

let run ?(window = 4) ?(faults = []) ?(max_time = 400_000)
    ?(record_trace = false) ?obs ?provenance ?members ?(reconfigs = [])
    ?compact_every ?patience ?repair_retries ?on_suspect ~topology
    ~scheduler ~seed ~cmds ~mode () =
  if cmds < 0 then invalid_arg "Workload.run: cmds < 0";
  let n = Amac.Topology.size topology in
  let rng = Amac.Rng.create seed in
  let clock = ref 0 in
  let submit_time : (int, int) Hashtbl.t = Hashtbl.create ((2 * cmds) + 16) in
  let commit_time : (int, int) Hashtbl.t = Hashtbl.create ((2 * cmds) + 16) in
  let origin : (int, int) Hashtbl.t = Hashtbl.create ((2 * cmds) + 16) in
  let issued = ref 0 in
  let next_cmd () =
    incr issued;
    !issued
  in
  (* The apply callback needs the handle (to resubmit in closed loop), but
     the handle only exists once [Smr.make] returns — hence the knot. *)
  let handle_ref = ref None in
  let on_apply ~node ~index:_ ~cmd =
    if not (Hashtbl.mem commit_time cmd) then
      Hashtbl.replace commit_time cmd !clock;
    match mode with
    | Open_loop _ -> ()
    | Closed_loop _ -> (
        (* The client attached to [cmd]'s origin replica sees completion on
           that replica's own apply and immediately submits its next
           command. Apply is exactly-once per node, so this fires once. *)
        match (Hashtbl.find_opt origin cmd, !handle_ref) with
        | Some origin_node, Some h when origin_node = node && !issued < cmds ->
            let c = next_cmd () in
            Hashtbl.replace origin c node;
            Hashtbl.replace submit_time c !clock;
            Smr.submit h ~node ~cmd:c
        | _ -> ())
  in
  let on_suspect =
    Option.map
      (fun f ~node ~suspect -> f ~now:!clock ~node ~suspect)
      on_suspect
  in
  let algorithm, h =
    Smr.make ~window ~on_apply ?on_suspect ?members ?compact_every ?patience
      ?repair_retries ~clock ()
  in
  handle_ref := Some h;
  (* Reconfigurations ride the injection stream like client commands: the
     joint command is registered on the handle up front (so the injector
     recognises it) and lands at its target replica at its scheduled time.
     One landing on a crashed replica is lost, like any client request. *)
  let reconfig_injections =
    List.map
      (fun (node, at, members) ->
        (node, at, Smr.reconfig_cmd h ~members))
      reconfigs
  in
  let injections =
    match mode with
    | Open_loop { mean_gap } ->
        if mean_gap < 1 then invalid_arg "Workload.run: mean_gap < 1";
        let t = ref 0 in
        List.init cmds (fun _ ->
            t := !t + exp_gap rng ~mean_gap;
            let node = Amac.Rng.int rng n in
            let c = next_cmd () in
            Hashtbl.replace origin c node;
            (node, !t, c))
    | Closed_loop { clients_per_node } ->
        if clients_per_node < 1 then
          invalid_arg "Workload.run: clients_per_node < 1";
        let clients = min cmds (n * clients_per_node) in
        List.init clients (fun i ->
            let node = i mod n in
            let c = next_cmd () in
            Hashtbl.replace origin c node;
            (node, 0, c))
  in
  (* Submit time is the injection's *pop* time (= its scheduled time unless
     the run ends first); an injection lost to a crash never records one. *)
  let on_inject ~now ~payload ctx st =
    if not (Hashtbl.mem submit_time payload) then
      Hashtbl.replace submit_time payload now;
    Smr.injector h ~now ~payload ctx st
  in
  let compiled = Fault.compile ~n faults in
  Option.iter (fun obs -> Fault.record ~obs faults) obs;
  let inputs = Array.make n 0 in
  let outcome =
    Amac.Engine.run algorithm ~topology ~scheduler ~inputs ~give_n:true
      ~crashes:compiled.Fault.crashes ~recoveries:compiled.Fault.recoveries
      ?drop:compiled.Fault.drop
      ?stutter:compiled.Fault.stutter
      ~injections:(injections @ reconfig_injections)
      ~on_inject ~clock ~max_time ~stop_when_all_decided:false ~record_trace
      ~pp_msg:Smr.pp_msg ?provenance ?obs
  in
  let violations = Smr_checker.check h in
  let views = List.map (Smr.view h) (Smr.nodes h) in
  let commit_indices = List.map (fun (v : Smr.view) -> v.v_commit) views in
  let commit_index_min = List.fold_left min max_int commit_indices in
  let commit_index_min = if commit_index_min = max_int then 0 else commit_index_min in
  let commit_index_max = List.fold_left max 0 commit_indices in
  let latencies =
    Hashtbl.fold
      (fun cmd t acc ->
        match Hashtbl.find_opt submit_time cmd with
        | Some s when t >= s -> (t - s) :: acc
        | _ -> acc)
      commit_time []
    |> List.sort compare |> Array.of_list
  in
  (* Commit latency split at the command's first Propose: queueing
     (forwarding, leader election, window waits) vs replication (the
     Paxos round trips). Commands committed without an observed propose
     (none in practice) fall out of the breakdown only. *)
  let queue_latencies, replicate_latencies =
    Hashtbl.fold
      (fun cmd t acc ->
        match (Hashtbl.find_opt submit_time cmd, Smr.propose_time h ~cmd) with
        | Some s, Some p when t >= s && p >= s && t >= p ->
            let q, r = acc in
            ((p - s) :: q, (t - p) :: r)
        | _ -> acc)
      commit_time ([], [])
    |> fun (q, r) ->
    ( Array.of_list (List.sort compare q),
      Array.of_list (List.sort compare r) )
  in
  let committed = Hashtbl.length commit_time in
  let epochs = List.map (fun (v : Smr.view) -> v.v_epoch) views in
  let epoch_min = List.fold_left min max_int epochs in
  let epoch_min = if epoch_min = max_int then 0 else epoch_min in
  let epoch_max = List.fold_left max 0 epochs in
  let sum f = List.fold_left (fun acc v -> acc + f v) 0 views in
  let suspicions = sum (fun v -> v.Smr.v_fd_suspicions) in
  let snapshots_taken = sum (fun v -> v.Smr.v_snapshots_taken) in
  let snapshots_installed = sum (fun v -> v.Smr.v_snapshots_installed) in
  (match obs with
  | None -> ()
  | Some reg ->
      let labels = [ ("algorithm", algorithm.Amac.Algorithm.name) ] in
      Obs.Metrics.add
        (Obs.Metrics.counter reg ~labels "smr_submitted_total")
        (Smr.submitted_count h);
      Obs.Metrics.add
        (Obs.Metrics.counter reg ~labels "smr_committed_total")
        committed;
      let hist =
        Obs.Metrics.histogram reg ~labels ~buckets:latency_buckets
          "smr_commit_latency_ticks"
      in
      Array.iter (fun l -> Obs.Metrics.observe hist (float_of_int l)) latencies;
      let queue_hist =
        Obs.Metrics.histogram reg ~labels ~buckets:latency_buckets
          "smr_queue_latency_ticks"
      in
      Array.iter
        (fun l -> Obs.Metrics.observe queue_hist (float_of_int l))
        queue_latencies;
      let repl_hist =
        Obs.Metrics.histogram reg ~labels ~buckets:latency_buckets
          "smr_replicate_latency_ticks"
      in
      Array.iter
        (fun l -> Obs.Metrics.observe repl_hist (float_of_int l))
        replicate_latencies;
      Obs.Metrics.add
        (Obs.Metrics.counter reg ~labels "smr_fd_suspicions_total")
        suspicions;
      Obs.Metrics.add
        (Obs.Metrics.counter reg ~labels "smr_snapshots_taken_total")
        snapshots_taken;
      Obs.Metrics.add
        (Obs.Metrics.counter reg ~labels "smr_snapshots_installed_total")
        snapshots_installed;
      Obs.Metrics.set
        (Obs.Metrics.gauge reg ~labels "smr_epoch_max")
        (float_of_int epoch_max);
      List.iter
        (fun (v : Smr.view) ->
          let s = v.v_fd in
          let node_labels = ("node", string_of_int v.v_node) :: labels in
          Obs.Metrics.set
            (Obs.Metrics.gauge reg ~labels:node_labels "fd_suspected_now")
            (float_of_int s.Fd.suspected_now);
          Obs.Metrics.set
            (Obs.Metrics.gauge reg ~labels:node_labels "fd_patience_acks")
            (float_of_int s.Fd.patience_now))
        views);
  {
    outcome;
    handle = h;
    violations;
    issued = !issued;
    submitted = Smr.submitted_count h;
    committed;
    commit_index_min;
    commit_index_max;
    latencies;
    queue_latencies;
    replicate_latencies;
    epoch_min;
    epoch_max;
    suspicions;
    snapshots_taken;
    snapshots_installed;
  }
