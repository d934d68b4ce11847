type result = {
  outcome : Amac.Engine.outcome;
  handle : Shard.handle;
  violations : Smr_checker.shard_violation list;
  issued : int;
  submitted : int;
  committed : int;
  batches : int;
  latencies : int array;
  group_commits : int array;
  last_commit : int;
}

let run ?(window = 4) ?(batch = 4) ?(mean_gap = 2) ?(burst = 1)
    ?(affinity = false) ?(key_space = 256) ?theta ?(faults = [])
    ?(max_time = 400_000) ?(record_trace = false) ?obs
    ?members_of ~topology ~scheduler ~seed ~cmds ~groups () =
  if cmds < 0 then invalid_arg "Shard_workload.run: cmds < 0";
  if mean_gap < 1 then invalid_arg "Shard_workload.run: mean_gap < 1";
  if burst < 1 then invalid_arg "Shard_workload.run: burst < 1";
  if key_space < 1 then invalid_arg "Shard_workload.run: key_space < 1";
  let n = Amac.Topology.size topology in
  let rng = Amac.Rng.create seed in
  let zipf = Zipf.make ?theta ~support:key_space ~seed:(seed lxor 0x5bd1e995) () in
  let clock = ref 0 in
  let submit_time : (int, int) Hashtbl.t = Hashtbl.create ((2 * cmds) + 16) in
  let commit_time : (int, int) Hashtbl.t = Hashtbl.create ((2 * cmds) + 16) in
  let last_commit = ref 0 in
  let on_apply ~node:_ ~group:_ ~cmd =
    if not (Hashtbl.mem commit_time cmd) then begin
      Hashtbl.replace commit_time cmd !clock;
      if !clock > !last_commit then last_commit := !clock
    end
  in
  let algorithm, h =
    Shard.make ~window ~batch ~on_apply ?members_of ~clock ~groups ()
  in
  (* The client schedule: a Poisson arrival process (inverse-CDF
     exponential gaps) of Zipf-keyed commands, each landing at a
     uniformly drawn replica. Keys route commands to groups up front. *)
  let issued = ref 0 in
  let last_t = ref 0 in
  (* [burst] commands share each arrival (same node, same tick): offered
     load is burst/mean_gap commands per tick, which is how a bench
     pushes past one group's drain capacity while gaps stay integral. *)
  let home =
    (* With [affinity] each command lands at a replica of its owning
       group — the client knows the shard map. Without it (default) the
       whole burst lands at one uniform node; per-(node, group) staging
       buffers then fill [groups] times slower and the run degenerates
       into waiting for the end-of-run flush markers. *)
    let members g =
      match members_of with
      | None -> Array.init n Fun.id
      | Some f -> Array.of_list (f g)
    in
    Array.init groups members
  in
  let arrivals = (cmds + burst - 1) / burst in
  let injections =
    List.concat_map
      (fun _ ->
        last_t := !last_t + Workload.exp_gap rng ~mean_gap;
        let node = Amac.Rng.int rng n in
        let t = !last_t in
        List.filter_map
          (fun _ ->
            if !issued >= cmds then None
            else begin
              let key = Zipf.next zipf in
              incr issued;
              let cmd = !issued in
              let g = Shard.route h ~key ~cmd in
              let node =
                if affinity then
                  home.(g).(Amac.Rng.int rng (Array.length home.(g)))
                else node
              in
              Some (node, t, cmd)
            end)
          (List.init burst (fun i -> i)))
      (List.init arrivals (fun i -> i))
  in
  (* Trailing sub-batch commands sit in per-(node, group) buffers;
     flush markers at every (node, group) after the last arrival force
     them into the logs. A marker landing on a crashed node is lost,
     like the staged commands it would have flushed. *)
  let flush_at = !last_t + (2 * mean_gap) + 1 in
  let flushes =
    List.concat_map
      (fun node ->
        List.init groups (fun g -> (node, flush_at, Shard.flush_cmd ~group:g)))
      (List.init n (fun i -> i))
  in
  let on_inject ~now ~payload ctx st =
    if payload land (1 lsl 43) = 0 && not (Hashtbl.mem submit_time payload)
    then Hashtbl.replace submit_time payload now;
    Shard.injector h ~now ~payload ctx st
  in
  let compiled = Fault.compile ~n faults in
  Option.iter (fun obs -> Fault.record ~obs faults) obs;
  let inputs = Array.make n 0 in
  let outcome =
    Amac.Engine.run algorithm ~topology ~scheduler ~inputs ~give_n:true
      ~crashes:compiled.Fault.crashes ~recoveries:compiled.Fault.recoveries
      ?drop:compiled.Fault.drop
      ?stutter:compiled.Fault.stutter
      ~injections:(injections @ flushes)
      ~on_inject ~clock ~max_time ~stop_when_all_decided:false ~record_trace
      ~pp_msg:Shard.pp_msg ?obs
  in
  let violations = Shard.check h in
  let latencies =
    Hashtbl.fold
      (fun cmd t acc ->
        match Hashtbl.find_opt submit_time cmd with
        | Some s when t >= s -> (t - s) :: acc
        | _ -> acc)
      commit_time []
    |> List.sort compare |> Array.of_list
  in
  let group_commits =
    Array.init groups (fun g ->
        let ih = Shard.inner h g in
        List.fold_left
          (fun acc node -> max acc (Smr.view ih node).v_commit)
          0 (Smr.nodes ih))
  in
  let committed = Shard.committed h in
  (match obs with
  | None -> ()
  | Some reg ->
      let labels = [ ("algorithm", algorithm.Amac.Algorithm.name) ] in
      Obs.Metrics.add
        (Obs.Metrics.counter reg ~labels "shard_submitted_total")
        (Shard.submitted h);
      Obs.Metrics.add
        (Obs.Metrics.counter reg ~labels "shard_committed_total")
        committed;
      Obs.Metrics.add
        (Obs.Metrics.counter reg ~labels "shard_batches_total")
        (Shard.batches h);
      let hist =
        Obs.Metrics.histogram reg ~labels ~buckets:Workload.latency_buckets
          "shard_commit_latency_ticks"
      in
      Array.iter (fun l -> Obs.Metrics.observe hist (float_of_int l)) latencies;
      Array.iteri
        (fun g c ->
          Obs.Metrics.set
            (Obs.Metrics.gauge reg
               ~labels:(("group", string_of_int g) :: labels)
               "shard_group_commit_index")
            (float_of_int c))
        group_commits);
  {
    outcome;
    handle = h;
    violations;
    issued = !issued;
    submitted = Shard.submitted h;
    committed;
    batches = Shard.batches h;
    latencies;
    group_commits;
    last_commit = !last_commit;
  }
