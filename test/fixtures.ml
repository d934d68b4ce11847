(* Fixtures shared by the test executables. *)

(* A static per-directed-edge delay, clamped to [1, fack]; the ack lands
   with the slowest delivery. *)
let per_edge ~name ~fack ~delay =
  Amac.Scheduler.make ~name ~fack (fun ~now ~sender ~neighbors ->
      let receives =
        List.map
          (fun r -> (r, now + min fack (max 1 (delay ~sender ~receiver:r))))
          neighbors
      in
      let ack_at =
        List.fold_left (fun acc (_, t) -> max acc t) (now + 1) receives
      in
      { Amac.Scheduler.receives; ack_at })

(* Two [k]-cliques joined by the bridge (k-1, k): diameter 3 for k >= 2. *)
let barbell k =
  Amac.Topology.of_edges ~n:(2 * k)
    ((k - 1, k)
    :: List.concat_map
         (fun (u, v) -> [ (u, v); (u + k, v + k) ])
         (Amac.Topology.edges (Amac.Topology.clique k)))

(* Every node that did not crash decided. *)
let all_decided (o : Amac.Engine.outcome) =
  Array.for_all2 (fun crashed d -> crashed || d <> None) o.crashed o.decisions

(* The sample named [name] with exactly [labels], given in any order. *)
let find snapshot ?(labels = []) name =
  let labels = List.sort compare labels in
  List.find_opt
    (fun (s : Obs.Metrics.sample) -> s.name = name && s.labels = labels)
    snapshot

(* A counter's value, 0 when absent. *)
let counter_of snapshot ?labels name =
  match find snapshot ?labels name with
  | None -> 0
  | Some { value = Counter n; _ } -> n
  | Some _ -> invalid_arg (name ^ " is not a counter")

(* Node [node]'s replica view with every other field empty or zero; a
   hand-built case overrides the fields its clause reads. *)
let view node =
  {
    Smr.v_node = node;
    v_log = [];
    v_commit = 0;
    v_applied = [];
    v_floor = 0;
    v_snap_applied = [];
    v_configs = [];
    v_epoch = 0;
    v_leader = node;
    v_members = [];
    v_joint = None;
    v_fd =
      { Fd.suspected_now = 0; watched = node; silence = 0; patience_now = 0 };
    v_fd_suspicions = 0;
    v_snapshots_taken = 0;
    v_snapshots_installed = 0;
    v_reconfigs_superseded = 0;
  }
